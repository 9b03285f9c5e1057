//! The byte-identity contract of the typed-API redesign.
//!
//! `execute(session, cmd)` used to format results inline; it is now
//! `present::render(&apply(session, cmd)?)`. This suite freezes the
//! pre-redesign formatting as a local oracle (`legacy`) and asserts that
//! every CLI command still produces the *exact* bytes it did before the
//! structured [`Response`] layer existed — read-only commands against live
//! session state, mutating commands against their frozen acknowledgement
//! lines.

use fairank::session::command::{apply, Command};
use fairank::session::{present, Session};

/// Runs one command through the new typed path and returns the rendered
/// text (exactly what the REPL prints).
fn run(session: &mut Session, line: &str) -> String {
    let command = Command::parse(line).unwrap_or_else(|e| panic!("parse {line:?}: {e}"));
    let response =
        apply(session, command).unwrap_or_else(|e| panic!("apply {line:?}: {e}"));
    present::render(&response)
}

/// Frozen copies of the formatting the string-era `execute` performed
/// inline (and of the old `render` module it called). Deliberately *not*
/// shared with production code: this module is the oracle.
mod legacy {
    use fairank::core::histogram::Histogram;
    use fairank::session::{Panel, Session};

    pub const HELP: &str = "\
FaiRank commands:
  datasets | funcs | panels            list session objects
  load <name> <path.csv>               load a CSV dataset
  generate <name> <preset> [n=] [seed=]  presets: crowdsourcing, biased,
                                       taskrabbit, qapa
  define <name> <attr*w+attr*w…>       define a scoring function
  data <name> [rows=10]                print the head of a dataset
  describe <name>                      per-column summary statistics
  save <dir> | open <dir>              persist / restore the session
  filter <new> <src> \"<expr>\"          derive a filtered dataset
  anonymize <new> <src> k=2 [method=mondrian|datafly]
  quantify <dataset> <func> [objective=most|least] [agg=mean|max|min|variance]
           [bins=10] [emd=1d|transport] [where=\"<expr>\"] [opaque]
  subgroups <dataset> <func> [depth=2] [min=5] [top=5]
                                       most/least favored subgroups
  show <panel>                         render a panel's partitioning tree
  node <panel> <node>                  the Node box for one tree node
  why <panel> <node>                   explain the search decision at a node
  compare <a> <b>                      compare two panels
  export <panel> <path.json>           export a panel as JSON
  audit <taskrabbit|qapa> [n=] [seed=] [k=] [ranking-only]
  jobowner <preset> <job> <skill> [n=] [seed=]
  enduser <preset> \"<group expr>\" [n=] [seed=]
  stream <preset> <job> [n=] [seed=] [rounds=] [arrivals=] [departures=]
         [rescores=] [stream-seed=] [k=] [ranking-only]
                                       incremental re-audit over live churn
  scenario grid <ds,..> <func,..> [objectives=] [aggs=] [bins=] [emd=]
           [strategy=quantify|beam|exhaustive] [width=] [depth=] [min=]
           [budget=] [where=\"<expr>\"]   compile a grid into parallel cells
  scenario auditor <preset> [n=] [seed=] [k=] [ranking-only] [sg-depth=] [sg-min=]
  scenario jobowner <preset> <job> <skill> [weights=w1,w2,..] [n=] [seed=]
  scenario enduser <preset> \"<group>\"… [n=] [seed=]
  scenario stream <preset> <job> [rounds=] [arrivals=] [departures=] [rescores=]
           [stream-seed=] [n=] [seed=] [k=] [ranking-only]
  scenario <spec.json>                 run a scenario plan from a JSON spec
  sessions | evict <name>              registry admin (server --admin only)
  help | quit
";

    const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

    fn sparkline(hist: &Histogram) -> String {
        if hist.is_empty() {
            return "·".repeat(hist.spec().bins());
        }
        let max = hist.counts().iter().copied().max().unwrap_or(0).max(1);
        hist.counts()
            .iter()
            .map(|&c| {
                if c == 0 {
                    SPARK_LEVELS[0]
                } else {
                    let idx = ((c as f64 / max as f64) * (SPARK_LEVELS.len() - 1) as f64)
                        .round() as usize;
                    SPARK_LEVELS[idx.clamp(1, SPARK_LEVELS.len() - 1)]
                }
            })
            .collect()
    }

    pub fn render_tree(panel: &Panel) -> String {
        let mut out = String::new();
        render_node(panel, 0, "", true, true, &mut out);
        out
    }

    fn render_node(
        panel: &Panel,
        node: usize,
        prefix: &str,
        is_last: bool,
        is_root: bool,
        out: &mut String,
    ) {
        let stats = panel.node_stats(node).expect("tree node exists");
        let connector = if is_root {
            ""
        } else if is_last {
            "└─ "
        } else {
            "├─ "
        };
        let label = stats
            .label
            .rsplit(" ∧ ")
            .next()
            .unwrap_or(&stats.label)
            .to_string();
        let annotation = if stats.is_leaf {
            format!(
                " (n={}, μ={:.3}) {}",
                stats.size,
                stats.mean_score,
                sparkline(&stats.histogram)
            )
        } else {
            format!(
                " (n={}) ⊢ split on {}",
                stats.size,
                stats.split_attribute.as_deref().unwrap_or("?")
            )
        };
        out.push_str(prefix);
        out.push_str(connector);
        out.push_str(&format!("[{node}] "));
        out.push_str(&label);
        out.push_str(&annotation);
        out.push('\n');

        let children = &panel.outcome.tree.node(node).children;
        let child_prefix = if is_root {
            String::new()
        } else {
            format!("{prefix}{}", if is_last { "   " } else { "│  " })
        };
        for (i, &child) in children.iter().enumerate() {
            render_node(
                panel,
                child,
                &child_prefix,
                i + 1 == children.len(),
                false,
                out,
            );
        }
    }

    pub fn render_general(panel: &Panel) -> String {
        let info = panel.general_info();
        format!(
            "Panel #{} — {}\n\
             unfairness      {:.6}\n\
             partitions      {}\n\
             tree nodes      {}\n\
             max depth       {}\n\
             individuals     {}\n\
             search time     {} µs\n\
             splits scored   {}\n\
             histograms      {}\n\
             EMD calls       {} ({} cache hits, {} batches)\n\
             delta reuse     {} histograms, {} EMD entries invalidated\n",
            panel.id,
            panel.config.describe(),
            info.unfairness,
            info.num_partitions,
            info.tree_nodes,
            info.max_depth,
            info.individuals,
            info.elapsed_us,
            info.candidate_splits,
            info.histograms_built,
            info.emd_calls,
            info.emd_cache_hits,
            info.pairwise_batches,
            info.delta_reused_histograms,
            info.delta_invalidated_emds,
        )
    }

    pub fn render_node_box(panel: &Panel, node: usize) -> String {
        let stats = panel.node_stats(node).expect("node exists");
        let kind = if stats.is_leaf {
            "final partition".to_string()
        } else {
            format!(
                "internal, split on {}",
                stats.split_attribute.as_deref().unwrap_or("?")
            )
        };
        let divergence = stats
            .divergence_vs_siblings
            .map(|d| format!("{d:.4}"))
            .unwrap_or_else(|| "-".into());
        format!(
            "Node [{}] {}\n\
             kind            {}\n\
             individuals     {}\n\
             mean score      {:.4}\n\
             score range     [{:.4}, {:.4}]\n\
             vs siblings     {}\n\
             histogram       {}  (bins of {:?})\n",
            stats.node,
            stats.label,
            kind,
            stats.size,
            stats.mean_score,
            stats.min_score,
            stats.max_score,
            divergence,
            sparkline(&stats.histogram),
            stats.histogram.counts(),
        )
    }

    pub fn quantify_output(panel: &Panel) -> String {
        format!(
            "panel #{}: unfairness {:.6} over {} partitions\n{}",
            panel.id,
            panel.outcome.unfairness,
            panel.outcome.partitions.len(),
            render_tree(panel)
        )
    }

    pub fn datasets(session: &Session) -> String {
        let names = session.dataset_names();
        if names.is_empty() {
            return "no datasets — try `generate d biased` or `load d file.csv`".into();
        }
        names
            .iter()
            .map(|n| {
                let ds = session.dataset(n).expect("listed");
                format!("{n}  ({} rows, {} columns)", ds.num_rows(), ds.schema().len())
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    pub fn functions(session: &Session) -> String {
        let names = session.function_names();
        if names.is_empty() {
            return "no functions — try `define f rating*0.7+language_test*0.3`".into();
        }
        names
            .iter()
            .map(|n| {
                let f = session.function(n).expect("listed");
                let terms: Vec<String> = f
                    .terms()
                    .iter()
                    .map(|(a, w)| format!("{w}·{a}"))
                    .collect();
                format!("{n} = {}", terms.join(" + "))
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    pub fn panels(session: &Session) -> String {
        if session.panels().is_empty() {
            return "no panels — run `quantify <dataset> <function>`".into();
        }
        session
            .panels()
            .iter()
            .map(|p| {
                format!(
                    "#{}  u={:.4}  {}",
                    p.id,
                    p.outcome.unfairness,
                    p.config.describe()
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    pub fn compare(session: &Session, a: usize, b: usize) -> String {
        let pa = session.panel(a).expect("panel a");
        let pb = session.panel(b).expect("panel b");
        let ia = pa.general_info();
        let ib = pb.general_info();
        let delta = ib.unfairness - ia.unfairness;
        format!(
            "compare      #{a:<28} #{b}\n\
             config       {:<28} {}\n\
             unfairness   {:<28.6} {:.6}  (Δ {:+.6})\n\
             partitions   {:<28} {}\n\
             individuals  {:<28} {}\n",
            pa.config.describe(),
            pb.config.describe(),
            ia.unfairness,
            ib.unfairness,
            delta,
            ia.num_partitions,
            ib.num_partitions,
            ia.individuals,
            ib.individuals,
        )
    }

    pub fn subgroups(
        session: &Session,
        dataset: &str,
        function: &str,
        depth: usize,
        min_size: usize,
        top: usize,
    ) -> String {
        use fairank::core::fairness::FairnessCriterion;
        use fairank::core::scoring::ScoreSource;
        use fairank::core::subgroup::{least_favored, most_favored, subgroup_stats};
        let f = session.function(function).expect("function").clone();
        let ds = session.dataset(dataset).expect("dataset");
        let space = ds.to_space(&ScoreSource::Function(f)).expect("space");
        let criterion = FairnessCriterion::default().fit_range(&space);
        let stats = subgroup_stats(&space, &criterion, depth, min_size).expect("stats");
        let mut out = format!(
            "subgroups of {dataset} under {function} (depth ≤ {depth}, size ≥ {min_size}): {}\n",
            stats.len()
        );
        out.push_str("most favored:\n");
        for s in most_favored(&stats, top) {
            out.push_str(&format!(
                "  {:<44} n={:<4} advantage {:+.3}  divergence {:.3}\n",
                s.label, s.size, s.advantage, s.divergence
            ));
        }
        out.push_str("least favored:\n");
        for s in least_favored(&stats, top) {
            out.push_str(&format!(
                "  {:<44} n={:<4} advantage {:+.3}  divergence {:.3}\n",
                s.label, s.size, s.advantage, s.divergence
            ));
        }
        out
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fairank_api_equiv_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn every_command_matches_the_pre_redesign_transcript() {
    let dir = tmpdir("script");
    let mut s = Session::new();

    // -- fixed text and empty listings ------------------------------------
    assert_eq!(run(&mut s, "help"), legacy::HELP);
    assert_eq!(
        run(&mut s, "datasets"),
        "no datasets — try `generate d biased` or `load d file.csv`"
    );
    assert_eq!(
        run(&mut s, "funcs"),
        "no functions — try `define f rating*0.7+language_test*0.3`"
    );
    assert_eq!(
        run(&mut s, "panels"),
        "no panels — run `quantify <dataset> <function>`"
    );

    // -- mutating acknowledgements (frozen one-liners) --------------------
    assert_eq!(
        run(&mut s, "generate pop biased n=120 seed=5"),
        "generated pop = biased(n=120, seed=5)"
    );
    assert_eq!(
        run(&mut s, "define f rating*0.7+language_test*0.3"),
        "defined f = rating*0.7+language_test*0.3"
    );
    let filtered = run(&mut s, r#"filter women pop "gender=Female""#);
    let women_rows = s.dataset("women").unwrap().num_rows();
    assert_eq!(filtered, format!("women = pop where gender=Female ({women_rows} rows)"));
    assert_eq!(
        run(&mut s, "anonymize anon pop k=4 method=mondrian"),
        "anon = Mondrian(pop, k=4), 0 rows suppressed"
    );

    // -- populated listings (oracle over live state) ----------------------
    assert_eq!(run(&mut s, "datasets"), legacy::datasets(&s));
    assert_eq!(run(&mut s, "funcs"), legacy::functions(&s));

    // -- data head and describe -------------------------------------------
    assert_eq!(run(&mut s, "data pop rows=7"), s.dataset("pop").unwrap().render_head(7));
    assert_eq!(
        run(&mut s, "data pop rows=500"), // more than the dataset holds
        s.dataset("pop").unwrap().render_head(500)
    );
    assert_eq!(
        run(&mut s, "describe pop"),
        fairank::data::stats::describe(s.dataset("pop").unwrap())
    );

    // -- quantifications (tree text from the frozen renderer) -------------
    let created = run(&mut s, "quantify pop f");
    assert_eq!(created, legacy::quantify_output(s.panel(0).unwrap()));
    let created = run(&mut s, "quantify pop f objective=least agg=max bins=5");
    assert_eq!(created, legacy::quantify_output(s.panel(1).unwrap()));
    let created = run(&mut s, r#"quantify pop f where="gender=Female""#);
    assert_eq!(created, legacy::quantify_output(s.panel(2).unwrap()));
    let created = run(&mut s, "quantify pop f opaque");
    assert_eq!(created, legacy::quantify_output(s.panel(3).unwrap()));
    assert_eq!(run(&mut s, "panels"), legacy::panels(&s));

    // -- panel inspection --------------------------------------------------
    let expected = format!(
        "{}\n{}",
        legacy::render_general(s.panel(0).unwrap()),
        legacy::render_tree(s.panel(0).unwrap())
    );
    assert_eq!(run(&mut s, "show 0"), expected);
    for node in 0..s.panel(0).unwrap().outcome.tree.len() {
        assert_eq!(
            run(&mut s, &format!("node 0 {node}")),
            legacy::render_node_box(s.panel(0).unwrap(), node)
        );
    }
    {
        use fairank::core::explain::{explain_tree, render_explanation};
        let p = s.panel(0).unwrap();
        let explanations =
            explain_tree(&p.space, &p.outcome.tree, p.criterion()).unwrap();
        let expected = render_explanation(&explanations[0]);
        assert_eq!(run(&mut s, "why 0 0"), expected);
    }
    assert_eq!(run(&mut s, "compare 0 1"), legacy::compare(&s, 0, 1));

    // -- subgroups ---------------------------------------------------------
    assert_eq!(
        run(&mut s, "subgroups pop f depth=2 min=10 top=3"),
        legacy::subgroups(&s, "pop", "f", 2, 10, 3)
    );

    // -- export ------------------------------------------------------------
    let export_path = dir.join("panel.json");
    assert_eq!(
        run(&mut s, &format!("export 0 {}", export_path.display())),
        format!("exported panel #0 to {}", export_path.display())
    );
    assert!(export_path.exists());

    // -- persistence -------------------------------------------------------
    let save_dir = dir.join("saved");
    assert_eq!(
        run(&mut s, &format!("save {}", save_dir.display())),
        format!("saved 3 dataset(s) and 1 function(s) to {}", save_dir.display())
    );
    let mut fresh = Session::new();
    assert_eq!(
        run(&mut fresh, &format!("open {}", save_dir.display())),
        format!(
            "opened session from {}: 3 dataset(s), 1 function(s)",
            save_dir.display()
        )
    );

    // -- load --------------------------------------------------------------
    let csv_path = dir.join("tiny.csv");
    std::fs::write(&csv_path, "gender,rating\nF,0.4\nM,0.9\n").unwrap();
    assert_eq!(
        run(&mut fresh, &format!("load tiny {}", csv_path.display())),
        format!("loaded tiny (2 rows) from {}", csv_path.display())
    );

    // -- quit --------------------------------------------------------------
    assert_eq!(run(&mut fresh, "quit"), "quit");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_reports_match_the_pre_redesign_transcript() {
    use fairank::core::fairness::FairnessCriterion;
    use fairank::marketplace::{scenario, Transparency};
    use fairank::session::report;

    let mut s = Session::new();

    // audit taskrabbit n=120 seed=4 — the old arm rendered the report it
    // built; the oracle rebuilds the identical (deterministic) report.
    let market = scenario::taskrabbit_like(120, 4).unwrap();
    // The old arm's min-subgroup floor was `(n / 20).max(2)`; n=120 ⇒ 6.
    let expected = report::auditor_report(
        &market,
        &Transparency::full(),
        &FairnessCriterion::default(),
        2,
        6,
    )
    .unwrap()
    .render();
    assert_eq!(run(&mut s, "audit taskrabbit n=120 seed=4"), expected);

    // jobowner taskrabbit wood-panels rating n=120 seed=4
    let base = market.job("wood-panels").unwrap().scoring.clone();
    let expected = report::job_owner_sweep(
        market.workers(),
        &base,
        "rating",
        &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        &FairnessCriterion::default(),
    )
    .unwrap()
    .render();
    assert_eq!(
        run(&mut s, "jobowner taskrabbit wood-panels rating n=120 seed=4"),
        expected
    );

    // enduser taskrabbit "gender=Female" n=120 seed=4
    let filter = fairank::data::filter::Filter::parse("gender=Female").unwrap();
    let expected = report::end_user_report(&market, &filter, &FairnessCriterion::default())
        .unwrap()
        .render();
    assert_eq!(
        run(&mut s, r#"enduser taskrabbit "gender=Female" n=120 seed=4"#),
        expected
    );
}

#[test]
fn execute_facade_is_render_of_apply() {
    use fairank::session::command::execute;
    let mut a = Session::new();
    let mut b = Session::new();
    // ("show" is excluded: its General box prints the search's wall-clock
    // time, which differs between the two sessions' independent runs.)
    for line in [
        "generate pop biased n=60 seed=2",
        "define f rating*1.0",
        "quantify pop f",
        "panels",
        "node 0 0",
        "compare 0 0",
        "quit",
    ] {
        let via_execute = execute(&mut a, Command::parse(line).unwrap()).unwrap();
        let via_apply = run(&mut b, line);
        assert_eq!(via_execute, via_apply, "line {line:?}");
    }
}
