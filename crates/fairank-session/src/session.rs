//! The multi-panel exploration session (Figure 1's engine).
//!
//! A session holds named datasets and scoring functions, runs
//! configurations into [`Panel`]s, and supports the derived-dataset
//! operations of the architecture: filtering, anonymization and
//! transparency changes. "The user can also choose to modify the scoring
//! function or the fairness formulation, and obtain several panels to
//! explore how that impacts fairness quantification" (§2).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use fairank_anonymize::{datafly, mondrian, DataflyConfig, MondrianConfig};
use fairank_core::cancel::RunBudget;
use fairank_core::plan::CellKey;
use fairank_core::scoring::LinearScoring;
use fairank_core::space::RankingSpace;
use fairank_data::dataset::Dataset;
use fairank_data::filter::Filter;
use fairank_data::schema::AttributeRole;
use fairank_data::store::{DatasetHandle, DatasetStore};

use crate::cellcache::CellCache;
use crate::config::Configuration;
use crate::error::{Result, SessionError};
use crate::market::MarketCache;
use crate::panel::{NodeMemo, Panel};

/// Which anonymization algorithm a session command uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnonMethod {
    /// Mondrian multidimensional recoding (keeps every row).
    #[default]
    Mondrian,
    /// Datafly full-domain generalization (may suppress rows).
    Datafly,
    /// Incognito: optimal full-domain generalization (no suppression).
    Incognito,
}

/// The exploration workspace: datasets, functions, panels.
///
/// Datasets live in a content-addressed [`DatasetStore`]: the session
/// holds lightweight [`DatasetHandle`]s, so loading identical content
/// twice (or into N sessions sharing a registry-level store) dedupes to
/// one `Arc`-shared columnar allocation.
#[derive(Debug, Default)]
pub struct Session {
    datasets: BTreeMap<String, DatasetHandle>,
    functions: BTreeMap<String, LinearScoring>,
    panels: Vec<Panel>,
    /// The content-addressed store datasets are interned into. Private
    /// sessions get their own; the service registry shares one across all
    /// sessions.
    store: Arc<DatasetStore>,
    /// The marketplace memo the preset commands look markets up in,
    /// shared like the store.
    markets: Arc<MarketCache>,
    /// The cell cache every `quantify` and grid cell runs through, shared
    /// like the store; disabled unless [`Session::with_shared`] hands one.
    cells: Arc<CellCache>,
    /// Resolved ranking spaces by (dataset fingerprint, score source,
    /// filter). Weak: a space lives exactly as long as a panel or plan
    /// cell holds it; dead entries are pruned on insert.
    spaces: Mutex<HashMap<CellKey, Weak<RankingSpace>>>,
    /// Cooperative cancellation scope every search run by this session
    /// honors. Unlimited by default; the service installs a per-request
    /// deadline + cancel tokens before dispatching a command.
    run_budget: RunBudget,
}

impl Session {
    /// An empty session with a private dataset store and a disabled cell
    /// cache.
    pub fn new() -> Self {
        Session::default()
    }

    /// An empty session interning datasets into `store` — how the service
    /// registry makes N sessions share one allocation per distinct
    /// dataset.
    pub fn with_store(store: Arc<DatasetStore>) -> Self {
        Session {
            store,
            ..Session::default()
        }
    }

    /// An empty session interning datasets into `store`, looking
    /// marketplaces up in `markets` and running panel cells through
    /// `cells` — how the service registry makes N sessions share one
    /// dataset store, one marketplace memo and one cell cache.
    pub fn with_shared(
        store: Arc<DatasetStore>,
        markets: Arc<MarketCache>,
        cells: Arc<CellCache>,
    ) -> Self {
        Session {
            store,
            markets,
            cells,
            ..Session::default()
        }
    }

    /// The store this session interns datasets into.
    pub fn store(&self) -> &Arc<DatasetStore> {
        &self.store
    }

    /// The marketplace memo this session looks markets up in.
    pub fn markets(&self) -> &Arc<MarketCache> {
        &self.markets
    }

    /// The cell cache this session's panel cells run through.
    pub fn cell_cache(&self) -> &Arc<CellCache> {
        &self.cells
    }

    /// Takes over `other`'s marketplace memo and cell cache (a reopened
    /// session keeps the ones of the session it replaces).
    pub(crate) fn share_caches_of(&mut self, other: &Session) {
        self.markets = Arc::clone(&other.markets);
        self.cells = Arc::clone(&other.cells);
    }

    /// Installs the cancellation scope (deadline and/or cancel tokens)
    /// searches run by this session poll. Pass [`RunBudget::unlimited`] to
    /// clear it.
    pub fn set_run_budget(&mut self, budget: RunBudget) {
        self.run_budget = budget;
    }

    /// The session's current cancellation scope.
    pub fn run_budget(&self) -> &RunBudget {
        &self.run_budget
    }

    /// Mutable access to the cancellation scope, for scoped install/restore
    /// (see [`crate::command::apply_with_budget`]).
    pub fn run_budget_mut(&mut self) -> &mut RunBudget {
        &mut self.run_budget
    }

    // ---- datasets -------------------------------------------------------

    /// Registers a dataset under a unique name. Names are validated here —
    /// the chokepoint every dataset passes through — so a name that could
    /// escape the session directory on `save` is rejected immediately
    /// instead of wedging the save later.
    pub fn add_dataset(&mut self, name: impl Into<String>, dataset: Dataset) -> Result<()> {
        let name = name.into();
        crate::persist::validate_dataset_name(&name)?;
        if self.datasets.contains_key(&name) {
            return Err(SessionError::NameTaken(name));
        }
        // Intern through the store: identical content (a re-loaded CSV, a
        // save/load round trip, another session's copy) dedupes to the
        // existing shared allocation.
        self.datasets.insert(name, self.store.intern(dataset));
        Ok(())
    }

    /// A registered dataset.
    pub fn dataset(&self, name: &str) -> Result<&Dataset> {
        self.dataset_handle(name).map(DatasetHandle::dataset)
    }

    /// A registered dataset's shared-storage handle (content fingerprint +
    /// `Arc`-shared columns).
    pub fn dataset_handle(&self, name: &str) -> Result<&DatasetHandle> {
        self.datasets
            .get(name)
            .ok_or_else(|| SessionError::UnknownDataset(name.to_string()))
    }

    /// Names of all registered datasets.
    pub fn dataset_names(&self) -> Vec<&str> {
        self.datasets.keys().map(String::as_str).collect()
    }

    /// Registers `new_name` as `source` filtered by `filter`.
    pub fn derive_filtered(
        &mut self,
        new_name: impl Into<String>,
        source: &str,
        filter: &Filter,
    ) -> Result<usize> {
        let filtered = self.dataset(source)?.filter(filter)?;
        let rows = filtered.num_rows();
        self.add_dataset(new_name, filtered)?;
        Ok(rows)
    }

    /// Registers `new_name` as a k-anonymized copy of `source` over all its
    /// protected attributes. Returns the number of suppressed rows (always
    /// 0 for Mondrian).
    pub fn derive_anonymized(
        &mut self,
        new_name: impl Into<String>,
        source: &str,
        k: usize,
        method: AnonMethod,
    ) -> Result<usize> {
        let ds = self.dataset(source)?;
        let qis: Vec<&str> = ds
            .schema()
            .fields()
            .iter()
            .filter(|f| f.role == AttributeRole::Protected)
            .map(|f| f.name.as_str())
            .collect();
        let (anon, suppressed) = match method {
            AnonMethod::Mondrian => {
                let out = mondrian(ds, &qis, MondrianConfig { k })?;
                (out.dataset, 0)
            }
            AnonMethod::Datafly => {
                let out = datafly(
                    ds,
                    &qis,
                    &[],
                    DataflyConfig {
                        k,
                        max_suppression: 0.05,
                    },
                )?;
                (out.dataset, out.suppressed)
            }
            AnonMethod::Incognito => {
                let hierarchies = fairank_anonymize::datafly::auto_hierarchies(ds, &qis)?;
                let out = fairank_anonymize::incognito(ds, &qis, &hierarchies, k)?;
                (out.dataset, 0)
            }
        };
        self.add_dataset(new_name, anon)?;
        Ok(suppressed)
    }

    // ---- scoring functions ----------------------------------------------

    /// Registers a scoring function under a unique name.
    pub fn add_function(
        &mut self,
        name: impl Into<String>,
        function: LinearScoring,
    ) -> Result<()> {
        let name = name.into();
        if self.functions.contains_key(&name) {
            return Err(SessionError::NameTaken(name));
        }
        self.functions.insert(name, function);
        Ok(())
    }

    /// A registered function.
    pub fn function(&self, name: &str) -> Result<&LinearScoring> {
        self.functions
            .get(name)
            .ok_or_else(|| SessionError::UnknownFunction(name.to_string()))
    }

    /// Names of all registered functions.
    pub fn function_names(&self) -> Vec<&str> {
        self.functions.keys().map(String::as_str).collect()
    }

    // ---- panels -----------------------------------------------------------

    /// Runs a configuration and appends the resulting panel. Returns the
    /// new panel's id.
    ///
    /// This is a one-configuration [`Session::quantify_grid`]: the
    /// configuration compiles into one grid plan cell, which runs through
    /// this session's cell cache, so a repeated `quantify` on a shared
    /// cache is served without searching again (`from_cache`). The
    /// criterion's histogram range is fitted to the observed score range
    /// first ("equal bins over the range of f"), and the fitted criterion
    /// is stored in the panel's configuration so node statistics and
    /// renderings use the same bins the search did.
    pub fn quantify(&mut self, config: Configuration) -> Result<usize> {
        Ok(self.quantify_grid(vec![config])?[0])
    }

    /// The space resolved under `key` (see [`crate::plan`]'s panel cells)
    /// while any panel or cell still holds it; otherwise `build`s it and
    /// keeps a weak reference. Configurations that differ only in their
    /// criterion thus score the rows once and share the result.
    pub(crate) fn shared_space(
        &self,
        key: CellKey,
        build: impl FnOnce() -> Result<RankingSpace>,
    ) -> Result<Arc<RankingSpace>> {
        let mut spaces = self.spaces.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(space) = spaces.get(&key).and_then(Weak::upgrade) {
            return Ok(space);
        }
        let space = Arc::new(build()?);
        spaces.retain(|_, space| space.strong_count() > 0);
        spaces.insert(key, Arc::downgrade(&space));
        Ok(space)
    }

    /// Appends an already-executed quantification as a panel — the commit
    /// step of grid plan cells. Returns the new panel's id.
    pub(crate) fn commit_panel(
        &mut self,
        config: Configuration,
        space: Arc<RankingSpace>,
        outcome: fairank_core::quantify::QuantifyOutcome,
        from_cache: bool,
        node_memo: NodeMemo,
    ) -> usize {
        // Chaos hook: a panic here unwinds through the scenario reduce
        // while the caller holds the session lock — the poisoning the
        // service's quarantine path must absorb.
        fairank_core::fault::panic_point(fairank_core::fault::COMMIT_PANIC);
        let id = self.panels.len();
        self.panels.push(Panel {
            id,
            config,
            space,
            outcome,
            from_cache,
            node_memo,
        });
        id
    }

    /// A panel by id.
    pub fn panel(&self, id: usize) -> Result<&Panel> {
        self.panels
            .get(id)
            .ok_or(SessionError::UnknownPanel(id))
    }

    /// All panels, oldest first.
    pub fn panels(&self) -> &[Panel] {
        &self.panels
    }

    /// Runs a whole grid of configurations in parallel (one panel each) —
    /// the Figure 3 multi-panel layout at scale, e.g. every scoring variant
    /// × every aggregator. Panels are appended in grid order; the returned
    /// ids follow it.
    ///
    /// This is a thin builder over the scenario plan layer: the grid
    /// compiles into one [`crate::plan::Plan`] cell per configuration
    /// (resolved and validated up front; configurations on the same
    /// dataset, score source and filter share one space), executes on at
    /// most `available_parallelism` scoped OS threads (a one-cell grid on
    /// the calling thread), and commits atomically — any failure surfaces
    /// before a single panel is appended.
    pub fn quantify_grid(&mut self, configs: Vec<Configuration>) -> Result<Vec<usize>> {
        use crate::plan::{Plan, ScenarioOutcome};
        use fairank_core::plan::SearchStrategy;

        let plan = Plan::for_configurations(self, configs, SearchStrategy::default())?;
        let report = plan.run_parallel(self)?;
        let ScenarioOutcome::Grid(rows) = report.outcome else {
            return Err(SessionError::Internal(
                "grid plan reduced to a non-grid outcome".into(),
            ));
        };
        rows.into_iter()
            .map(|row| {
                row.panel.ok_or_else(|| {
                    SessionError::Internal("grid cell did not commit a panel".into())
                })
            })
            .collect()
    }

    /// Side-by-side comparison of two panels' general info, as the Figure 3
    /// multi-panel layout enables. The structured form of this comparison
    /// is [`crate::response::CompareView`]; this renders it.
    pub fn compare(&self, a: usize, b: usize) -> Result<String> {
        let view = crate::response::CompareView::new(self.panel(a)?, self.panel(b)?);
        Ok(crate::present::render(
            &crate::response::Response::CompareReport(view),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairank_core::fairness::{Aggregator, FairnessCriterion, Objective};
    use fairank_core::quantify::Quantify;
    use fairank_data::paper;

    fn session_with_table1() -> Session {
        let mut s = Session::new();
        s.add_dataset("table1", paper::table1_dataset()).unwrap();
        s.add_function("paper-f", paper::table1_scoring()).unwrap();
        s
    }

    #[test]
    fn dataset_and_function_registry() {
        let mut s = session_with_table1();
        assert_eq!(s.dataset_names(), vec!["table1"]);
        assert_eq!(s.function_names(), vec!["paper-f"]);
        assert!(s.dataset("table1").is_ok());
        assert!(s.dataset("ghost").is_err());
        assert!(s.function("ghost").is_err());
        // Duplicates rejected.
        assert!(s.add_dataset("table1", paper::table1_dataset()).is_err());
        assert!(s.add_function("paper-f", paper::table1_scoring()).is_err());
    }

    #[test]
    fn quantify_produces_panels() {
        let mut s = session_with_table1();
        let id = s.quantify(Configuration::new("table1", "paper-f")).unwrap();
        assert_eq!(id, 0);
        let p = s.panel(0).unwrap();
        assert_eq!(p.general_info().individuals, 10);
        assert!(s.panel(5).is_err());
    }

    #[test]
    fn filtered_quantification_shrinks_population() {
        let mut s = session_with_table1();
        let config = Configuration::new("table1", "paper-f")
            .with_filter(Filter::all().eq("gender", "Male"));
        let id = s.quantify(config).unwrap();
        assert_eq!(s.panel(id).unwrap().general_info().individuals, 6);
    }

    #[test]
    fn derive_filtered_registers_new_dataset() {
        let mut s = session_with_table1();
        let rows = s
            .derive_filtered("males", "table1", &Filter::all().eq("gender", "Male"))
            .unwrap();
        assert_eq!(rows, 6);
        assert_eq!(s.dataset("males").unwrap().num_rows(), 6);
        assert!(s
            .derive_filtered("males", "table1", &Filter::all())
            .is_err());
    }

    #[test]
    fn derive_anonymized_both_methods() {
        let mut s = session_with_table1();
        let suppressed = s
            .derive_anonymized("anon-m", "table1", 2, AnonMethod::Mondrian)
            .unwrap();
        assert_eq!(suppressed, 0);
        assert_eq!(s.dataset("anon-m").unwrap().num_rows(), 10);

        let _ = s
            .derive_anonymized("anon-d", "table1", 2, AnonMethod::Datafly)
            .unwrap();
        assert!(s.dataset("anon-d").unwrap().num_rows() <= 10);
    }

    #[test]
    fn anonymized_dataset_can_be_quantified() {
        let mut s = session_with_table1();
        s.derive_anonymized("anon", "table1", 3, AnonMethod::Mondrian)
            .unwrap();
        let id = s.quantify(Configuration::new("anon", "paper-f")).unwrap();
        let info = s.panel(id).unwrap().general_info();
        assert!(info.unfairness >= 0.0);
    }

    #[test]
    fn compare_reports_delta() {
        let mut s = session_with_table1();
        let a = s.quantify(Configuration::new("table1", "paper-f")).unwrap();
        let b = s
            .quantify(
                Configuration::new("table1", "paper-f").with_criterion(
                    FairnessCriterion::new(Objective::LeastUnfair, Aggregator::Mean),
                ),
            )
            .unwrap();
        let text = s.compare(a, b).unwrap();
        assert!(text.contains("Δ"));
        assert!(text.contains("most-unfair"));
        assert!(text.contains("least-unfair"));
        assert!(s.compare(0, 99).is_err());
    }

    #[test]
    fn quantify_grid_runs_configs_in_parallel() {
        let mut s = session_with_table1();
        let configs: Vec<Configuration> = Aggregator::all()
            .into_iter()
            .map(|agg| {
                Configuration::new("table1", "paper-f")
                    .with_criterion(FairnessCriterion::new(Objective::MostUnfair, agg))
            })
            .collect();
        let ids = s.quantify_grid(configs).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        // Each grid panel matches its sequential counterpart (the panel's
        // stored criterion is the range-fitted one the grid ran with).
        for id in &ids {
            let sequential = Quantify::new(s.panel(*id).unwrap().config.criterion)
                .run_space(&s.panel(*id).unwrap().space)
                .unwrap();
            assert!(
                (s.panel(*id).unwrap().outcome.unfairness - sequential.unfairness).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn quantify_fits_histogram_to_score_range() {
        // Scores far outside [0, 1]: under the old hard-coded unit-range
        // histogram every score saturated into the last bin and unfairness
        // read 0.0 despite the groups being perfectly separated.
        let mut s = Session::new();
        let ds = Dataset::builder()
            .categorical(
                "g",
                AttributeRole::Protected,
                &["a", "a", "a", "b", "b", "b"],
            )
            .float(
                "skill",
                AttributeRole::Observed,
                vec![10.0, 11.0, 10.5, 19.0, 20.0, 19.5],
            )
            .build()
            .unwrap();
        s.add_dataset("wide", ds).unwrap();
        let f = LinearScoring::builder()
            .weight("skill", 1.0)
            .build_unchecked()
            .unwrap();
        s.add_function("f", f).unwrap();
        let id = s.quantify(Configuration::new("wide", "f")).unwrap();
        let p = s.panel(id).unwrap();
        assert!(p.outcome.unfairness > 0.5, "u = {}", p.outcome.unfairness);
        // The stored criterion reflects the fitted range, so node boxes and
        // renderings bin the same way the search did.
        assert!(p.config.criterion.hist.hi() > 1.0);
    }

    #[test]
    fn quantify_grid_validates_before_spawning() {
        let mut s = session_with_table1();
        let configs = vec![
            Configuration::new("table1", "paper-f"),
            Configuration::new("ghost", "paper-f"),
        ];
        assert!(s.quantify_grid(configs).is_err());
        // Nothing was committed.
        assert!(s.panels().is_empty());
    }

    #[test]
    fn identical_loads_into_one_session_share_storage() {
        // Regression: loading the same content twice used to duplicate the
        // parsed data; it now dedupes to one pointer-equal allocation.
        let mut s = session_with_table1();
        s.add_dataset("again", paper::table1_dataset()).unwrap();
        let a = s.dataset_handle("table1").unwrap().clone();
        let b = s.dataset_handle("again").unwrap();
        assert!(a.shares_storage_with(b));
        assert_eq!(s.store().stats().datasets, 1);
    }

    #[test]
    fn sessions_sharing_a_store_share_allocations() {
        let store = Arc::new(DatasetStore::new());
        let mut s1 = Session::with_store(Arc::clone(&store));
        let mut s2 = Session::with_store(Arc::clone(&store));
        s1.add_dataset("d", paper::table1_dataset()).unwrap();
        s2.add_dataset("copy", paper::table1_dataset()).unwrap();
        assert!(s1
            .dataset_handle("d")
            .unwrap()
            .shares_storage_with(s2.dataset_handle("copy").unwrap()));
        assert_eq!(store.stats().datasets, 1);
        drop(s1);
        drop(s2);
        assert_eq!(store.stats().datasets, 0);
    }

    #[test]
    fn a_private_session_never_serves_quantify_from_cache() {
        let mut s = session_with_table1();
        let a = s.quantify(Configuration::new("table1", "paper-f")).unwrap();
        let b = s.quantify(Configuration::new("table1", "paper-f")).unwrap();
        assert!(!s.panel(a).unwrap().from_cache);
        assert!(
            !s.panel(b).unwrap().from_cache,
            "Session::new() has a disabled cache"
        );
        assert_eq!(s.cell_cache().stats(), Default::default());
    }

    #[test]
    fn panel_ids_are_stable() {
        let mut s = session_with_table1();
        let a = s.quantify(Configuration::new("table1", "paper-f")).unwrap();
        let b = s.quantify(Configuration::new("table1", "paper-f")).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.panels().len(), 2);
        assert_eq!(s.panel(1).unwrap().id, 1);
    }
}
