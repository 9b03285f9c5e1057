//! Panels on the same inputs share what those inputs determine.
//!
//! - Every configuration on one (dataset content, score source, filter)
//!   in a session shares one scored `RankingSpace`: a criterion rotation
//!   or a grid scores the rows once.
//! - Every panel made from one cell-cache entry shares that tree's node
//!   boxes, built at most once, and only by a full-tree read.
//!
//! Sharing changes no reply: the memoized boxes equal the per-node oracle
//! `Panel::node_stats` bit for bit.

use std::sync::Arc;

use fairank::session::command::{apply, Command};
use fairank::session::response::NodeView;
use fairank::session::{CellCache, Panel, Response, Session};

fn run(session: &mut Session, line: &str) -> Response {
    apply(session, Command::parse(line).unwrap()).unwrap_or_else(|e| panic!("{line}: {e}"))
}

/// A session on `cache` holding the `pop` dataset and the function `f`.
fn seeded(cache: &Arc<CellCache>) -> Session {
    let mut session = Session::with_shared(Arc::default(), Arc::default(), Arc::clone(cache));
    run(&mut session, "generate pop biased n=300 seed=3");
    run(&mut session, "define f rating*0.7+language_test*0.3");
    session
}

fn shares_space(session: &Session, a: usize, b: usize) -> bool {
    Arc::ptr_eq(
        &session.panel(a).unwrap().space,
        &session.panel(b).unwrap().space,
    )
}

/// The per-node oracle's wire view of node `id`.
fn oracle(panel: &Panel, id: usize) -> NodeView {
    let tree_node = panel.outcome.tree.node(id);
    let stats = panel.node_stats(id).expect("node ids are valid");
    NodeView::from_stats(&stats, tree_node.parent, tree_node.children.clone())
}

/// Asserts two node views are equal, floats by bit pattern.
fn assert_bitwise_equal(got: &NodeView, want: &NodeView) {
    assert_eq!(got, want);
    let bits = |v: &NodeView| {
        [
            Some(v.mean_score.to_bits()),
            Some(v.min_score.to_bits()),
            Some(v.max_score.to_bits()),
            v.divergence_vs_siblings.map(f64::to_bits),
        ]
    };
    assert_eq!(bits(got), bits(want), "node {}", want.node);
}

#[test]
fn quantify_rotations_share_one_space_and_a_filter_gets_its_own() {
    let mut s = seeded(&Arc::default());
    run(&mut s, "generate twin biased n=300 seed=3");
    for line in [
        "quantify pop f",
        "quantify pop f objective=least agg=max bins=5",
        "quantify pop f agg=variance emd=transport",
        "quantify twin f agg=max",
        r#"quantify pop f where="gender=Female""#,
        r#"quantify pop f agg=max where="gender=Female""#,
        "quantify pop f opaque",
    ] {
        run(&mut s, line);
    }
    assert!(shares_space(&s, 0, 1) && shares_space(&s, 0, 2));
    assert!(
        shares_space(&s, 0, 3),
        "equal content under another name shares"
    );
    assert!(
        !shares_space(&s, 0, 4),
        "a filtered config gets its own space"
    );
    assert!(s.panel(4).unwrap().space.num_individuals() < 300);
    assert!(
        shares_space(&s, 4, 5),
        "the same filter shares the filtered space"
    );
    assert!(
        !shares_space(&s, 0, 6),
        "a ranking-only source is another space"
    );
}

#[test]
fn an_eight_cell_grid_resolves_one_space_for_all_its_panels() {
    let mut s = seeded(&Arc::new(CellCache::new(64)));
    run(
        &mut s,
        "scenario grid pop f objectives=most,least aggs=mean,max emd=1d,transport",
    );
    assert_eq!(s.panels().len(), 8);
    let space = &s.panels()[0].space;
    assert!(s.panels().iter().all(|p| Arc::ptr_eq(&p.space, space)));
    assert_eq!(
        Arc::strong_count(space),
        8,
        "the session keeps no strong copy"
    );
    run(&mut s, "quantify pop f bins=7");
    assert!(
        shares_space(&s, 0, 8),
        "a later quantify joins the grid's space"
    );
}

#[test]
fn a_second_session_on_a_shared_cache_reads_nodes_equal_to_the_oracle() {
    let cache = Arc::new(CellCache::new(64));
    let (mut first, mut second) = (seeded(&cache), seeded(&cache));
    let lines = [
        "quantify pop f",
        "quantify pop f objective=least agg=max bins=5",
        "quantify pop f agg=variance emd=transport",
        r#"quantify pop f where="gender=Female""#,
    ];
    for line in lines {
        run(&mut first, line);
    }
    for (computed, line) in lines.into_iter().enumerate() {
        let Response::PanelCreated(created) = run(&mut second, line) else {
            panic!("quantify replies with its panel");
        };
        assert!(created.from_cache);
        let Response::PanelDetail(shown) = run(&mut second, &format!("show {}", created.id)) else {
            panic!("show replies with the panel");
        };
        let panel = second.panel(created.id).unwrap();
        let entry = &first.panel(computed).unwrap().node_memo;
        assert!(
            Arc::ptr_eq(&panel.node_memo, entry),
            "one memo per cache entry"
        );
        let wanted: Vec<NodeView> = (0..panel.outcome.tree.len())
            .map(|id| oracle(panel, id))
            .collect();
        assert_eq!(created.nodes.len(), wanted.len());
        for (id, want) in wanted.iter().enumerate() {
            assert_bitwise_equal(&created.nodes[id], want);
            assert_bitwise_equal(&shown.nodes[id], want);
            let Response::NodeDetail(node) = run(&mut second, &format!("node {} {id}", created.id))
            else {
                panic!("node replies with the node");
            };
            assert_bitwise_equal(&node, want);
        }
    }
}

#[test]
fn a_node_on_an_unviewed_grid_panel_leaves_its_memo_empty() {
    let mut s = seeded(&Arc::new(CellCache::new(64)));
    run(&mut s, "scenario grid pop f aggs=mean,max");
    let Response::NodeDetail(before) = run(&mut s, "node 0 1") else {
        panic!("node replies with the node");
    };
    assert!(s.panel(0).unwrap().node_memo.get().is_none());
    run(&mut s, "show 0");
    assert!(s.panel(0).unwrap().node_memo.get().is_some());
    let Response::NodeDetail(after) = run(&mut s, "node 0 1") else {
        panic!("node replies with the node");
    };
    assert_bitwise_equal(&after, &before);
    assert_bitwise_equal(&before, &oracle(s.panel(0).unwrap(), 1));
}
