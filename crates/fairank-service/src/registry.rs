//! The concurrent session store.
//!
//! Sessions are named; every name maps to one `Arc<Mutex<Session>>`. The
//! outer `RwLock<HashMap<..>>` is only held long enough to resolve a name
//! to its handle (or to create/evict an entry), so resolving sessions
//! never blocks behind a running quantification; the per-session `Mutex`
//! serializes commands *within* one session, which is exactly the REPL's
//! consistency model — concurrent clients attached to the same session
//! behave like one user typing fast.
//!
//! Every entry tracks when it was last attached, so long-running servers
//! can expire idle sessions ([`SessionRegistry::evict_idle`], surfaced as
//! `serve --session-ttl`).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use fairank_session::{CellCache, DatasetStore, MarketCache, Session};

/// Errors of the registry itself (distinct from session errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// `create` on a name that already exists.
    AlreadyExists(String),
    /// `attach`/`evict` on a name that does not exist.
    NotFound(String),
    /// A session mutex was poisoned by a panicking holder.
    Poisoned,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::AlreadyExists(name) => {
                write!(f, "session {name:?} already exists")
            }
            RegistryError::NotFound(name) => write!(f, "no session named {name:?}"),
            RegistryError::Poisoned => write!(f, "session state poisoned by a panic"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A shared handle to one live session.
pub type SessionHandle = Arc<Mutex<Session>>;

/// One registry entry: the session handle plus its last-attach time and
/// how many compute-class requests currently hold it.
#[derive(Debug)]
struct Entry {
    handle: SessionHandle,
    last_used: Mutex<Instant>,
    in_flight: AtomicUsize,
}

impl Entry {
    fn new(registry: &SessionRegistry) -> Arc<Entry> {
        let session = Session::with_shared(
            Arc::clone(&registry.store),
            Arc::clone(&registry.markets),
            Arc::clone(&registry.cell_cache),
        );
        Arc::new(Entry {
            handle: Arc::new(Mutex::new(session)),
            last_used: Mutex::new(Instant::now()),
            in_flight: AtomicUsize::new(0),
        })
    }

    fn touch(&self) {
        *self
            .last_used
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Instant::now();
    }

    fn idle_for(&self) -> Duration {
        self.last_used
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .elapsed()
    }
}

/// An attached session: the handle plus the entry's request accounting.
/// Obtained from [`SessionRegistry::lease`]; holding a lease does NOT by
/// itself count as in-flight work — call [`SessionLease::try_admit`]
/// around compute-class requests.
#[derive(Debug, Clone)]
pub struct SessionLease {
    entry: Arc<Entry>,
}

impl SessionLease {
    /// The session behind the lease.
    pub fn handle(&self) -> &SessionHandle {
        &self.entry.handle
    }

    /// Whether a panic while holding the session lock has poisoned it.
    pub fn is_poisoned(&self) -> bool {
        self.entry.handle.is_poisoned()
    }

    /// Admits one compute-class request against the per-session cap
    /// (`cap == 0` means unlimited). Returns the guard that releases the
    /// slot on drop, or `None` when the session already has `cap`
    /// requests in flight — the caller replies `overloaded` instead of
    /// queueing unboundedly behind one session's mutex.
    pub fn try_admit(&self, cap: usize) -> Option<InFlightGuard> {
        let mut current = self.entry.in_flight.load(Ordering::Relaxed);
        loop {
            if cap != 0 && current >= cap {
                return None;
            }
            match self.entry.in_flight.compare_exchange(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(InFlightGuard {
                        entry: Arc::clone(&self.entry),
                    })
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Requests currently holding this session (compute-class only).
    pub fn in_flight(&self) -> usize {
        self.entry.in_flight.load(Ordering::Relaxed)
    }
}

/// Releases one in-flight slot on drop — taken before a compute request
/// starts, dropped when its reply is decided (including error and panic
/// paths, since the dispatch frame unwinds through it).
#[derive(Debug)]
pub struct InFlightGuard {
    entry: Arc<Entry>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.entry.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The concurrent multi-session store.
///
/// Every session created through the registry shares one
/// [`DatasetStore`] (identical datasets loaded into different sessions
/// are parsed once and held behind one allocation), one [`MarketCache`]
/// (a marketplace preset generated for any session is served to the
/// next one asking for the same `(preset, n, seed)`) and one [`CellCache`]
/// (a `quantify` or scenario-grid cell computed for any session is served
/// from cache to every later session asking for the same dataset ×
/// configuration).
///
/// A clone is another handle to the same registry: queued request jobs
/// carry one, since they outlive the borrow they were admitted under.
#[derive(Debug, Clone)]
pub struct SessionRegistry {
    sessions: Arc<RwLock<HashMap<String, Arc<Entry>>>>,
    store: Arc<DatasetStore>,
    markets: Arc<MarketCache>,
    cell_cache: Arc<CellCache>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    /// An empty registry with the default cell-cache capacity.
    pub fn new() -> Self {
        SessionRegistry::with_cell_cache_cap(CellCache::DEFAULT_CAP)
    }

    /// An empty registry whose shared cell cache holds at most `cap`
    /// entries (`0` disables caching entirely).
    pub fn with_cell_cache_cap(cap: usize) -> Self {
        SessionRegistry {
            sessions: Arc::new(RwLock::new(HashMap::new())),
            store: Arc::new(DatasetStore::new()),
            markets: Arc::new(MarketCache::new()),
            cell_cache: Arc::new(CellCache::new(cap)),
        }
    }

    /// The dataset store shared by every session in this registry.
    pub fn store(&self) -> &Arc<DatasetStore> {
        &self.store
    }

    /// The marketplace memo shared by every session in this registry; it
    /// outlives evicted sessions.
    pub fn markets(&self) -> &Arc<MarketCache> {
        &self.markets
    }

    /// The plan-cell cache shared by every session in this registry.
    pub fn cell_cache(&self) -> &Arc<CellCache> {
        &self.cell_cache
    }

    /// Creates a fresh named session. Fails if the name is taken.
    pub fn create(&self, name: &str) -> Result<SessionHandle, RegistryError> {
        let mut sessions = self.sessions.write().expect("registry lock");
        if sessions.contains_key(name) {
            return Err(RegistryError::AlreadyExists(name.to_string()));
        }
        let entry = Entry::new(self);
        let handle = Arc::clone(&entry.handle);
        sessions.insert(name.to_string(), entry);
        Ok(handle)
    }

    /// A handle to an existing named session. Attaching marks the session
    /// as used (it will not be expired by [`SessionRegistry::evict_idle`]
    /// until a full idle window passes again).
    pub fn attach(&self, name: &str) -> Result<SessionHandle, RegistryError> {
        self.sessions
            .read()
            .expect("registry lock")
            .get(name)
            .map(|entry| {
                entry.touch();
                Arc::clone(&entry.handle)
            })
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// A handle to the named session, creating it on first use — the wire
    /// protocol's behavior: naming a session is enough to bring it up.
    pub fn attach_or_create(&self, name: &str) -> SessionHandle {
        Arc::clone(self.lease(name).handle())
    }

    /// Like [`SessionRegistry::attach_or_create`], but returns the full
    /// [`SessionLease`] carrying the entry's in-flight accounting.
    pub fn lease(&self, name: &str) -> SessionLease {
        loop {
            if let Some(entry) = self
                .sessions
                .read()
                .expect("registry lock")
                .get(name)
                .map(Arc::clone)
            {
                entry.touch();
                return SessionLease { entry };
            }
            let mut sessions = self.sessions.write().expect("registry lock");
            // Racing creators: only insert if still absent, then loop back
            // through the read path so every caller shares one entry.
            sessions
                .entry(name.to_string())
                .or_insert_with(|| Entry::new(self));
        }
    }

    /// Replaces a session whose mutex was poisoned by a panicking holder
    /// with a fresh, empty session under the same name. Returns `true`
    /// when a replacement happened; a healthy (or already-replaced) entry
    /// is left alone, so concurrent detectors of the same poisoning race
    /// benignly — the first one swaps, the rest see a healthy entry.
    pub fn replace_poisoned(&self, name: &str) -> bool {
        let mut sessions = self.sessions.write().expect("registry lock");
        match sessions.get(name) {
            Some(entry) if entry.handle.is_poisoned() => {
                sessions.insert(name.to_string(), Entry::new(self));
                true
            }
            _ => false,
        }
    }

    /// Removes a session from the registry. Clients still holding the
    /// handle keep a working (now anonymous) session; new attaches fail.
    pub fn evict(&self, name: &str) -> Result<(), RegistryError> {
        self.sessions
            .write()
            .expect("registry lock")
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// Evicts every session not attached for at least `ttl`, returning the
    /// evicted names sorted. As with [`SessionRegistry::evict`], clients
    /// still holding a handle keep a working session — eviction only
    /// forgets the name. A session with admitted in-flight requests is
    /// never evicted regardless of its attach clock: a long-running
    /// quantification must not have its name swept out from under it.
    pub fn evict_idle(&self, ttl: Duration) -> Vec<String> {
        let mut sessions = self.sessions.write().expect("registry lock");
        let mut evicted: Vec<String> = sessions
            .iter()
            .filter(|(_, entry)| {
                entry.in_flight.load(Ordering::Relaxed) == 0 && entry.idle_for() >= ttl
            })
            .map(|(name, _)| name.clone())
            .collect();
        for name in &evicted {
            sessions.remove(name);
        }
        evicted.sort();
        evicted
    }

    /// Names of all live sessions, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .sessions
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.read().expect("registry lock").len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairank_session::command::{apply, Command};
    use fairank_session::Response;

    #[test]
    fn create_attach_evict_lifecycle() {
        let registry = SessionRegistry::new();
        assert!(registry.is_empty());
        registry.create("a").unwrap();
        assert_eq!(registry.create("a").unwrap_err(), RegistryError::AlreadyExists("a".into()));
        assert!(registry.attach("a").is_ok());
        assert_eq!(
            registry.attach("ghost").unwrap_err(),
            RegistryError::NotFound("ghost".into())
        );
        registry.create("b").unwrap();
        assert_eq!(registry.names(), vec!["a", "b"]);
        registry.evict("a").unwrap();
        assert_eq!(registry.evict("a").unwrap_err(), RegistryError::NotFound("a".into()));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn attach_or_create_is_idempotent() {
        let registry = SessionRegistry::new();
        let first = registry.attach_or_create("s");
        let second = registry.attach_or_create("s");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn detached_handles_outlive_eviction() {
        let registry = SessionRegistry::new();
        let handle = registry.attach_or_create("s");
        {
            let mut session = handle.lock().unwrap();
            apply(
                &mut session,
                Command::parse("generate pop biased n=40 seed=1").unwrap(),
            )
            .unwrap();
        }
        registry.evict("s").unwrap();
        // The evicted session keeps working for existing holders.
        let session = handle.lock().unwrap();
        assert_eq!(session.dataset_names(), vec!["pop"]);
        drop(session);
        // A new attach under the same name is a *fresh* session.
        let fresh = registry.attach_or_create("s");
        assert!(fresh.lock().unwrap().dataset_names().is_empty());
    }

    #[test]
    fn sessions_are_isolated() {
        let registry = SessionRegistry::new();
        let a = registry.attach_or_create("a");
        let b = registry.attach_or_create("b");
        {
            let mut session = a.lock().unwrap();
            let response = apply(
                &mut session,
                Command::parse("generate pop biased n=40 seed=1").unwrap(),
            )
            .unwrap();
            assert!(matches!(response, Response::DatasetGenerated { .. }));
        }
        assert!(b.lock().unwrap().dataset_names().is_empty());
    }

    #[test]
    fn concurrent_attaches_share_one_session() {
        let registry = Arc::new(SessionRegistry::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let registry = Arc::clone(&registry);
            handles.push(std::thread::spawn(move || {
                let handle = registry.attach_or_create("shared");
                let mut session = handle.lock().unwrap();
                apply(
                    &mut session,
                    Command::parse(&format!("generate d{i} biased n=20 seed={i}")).unwrap(),
                )
                .unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(registry.len(), 1);
        let handle = registry.attach("shared").unwrap();
        let session = handle.lock().unwrap();
        assert_eq!(session.dataset_names().len(), 8);
    }

    #[test]
    fn admission_cap_bounds_in_flight_requests_per_session() {
        let registry = SessionRegistry::new();
        let lease = registry.lease("s");
        assert_eq!(lease.in_flight(), 0);
        let a = lease.try_admit(2).expect("first slot");
        let b = lease.try_admit(2).expect("second slot");
        // At the cap: further admissions are refused, including through a
        // separately obtained lease of the same entry.
        assert!(lease.try_admit(2).is_none());
        assert!(registry.lease("s").try_admit(2).is_none());
        assert_eq!(lease.in_flight(), 2);
        // Cap 0 means unlimited.
        let c = lease.try_admit(0).expect("uncapped");
        drop(c);
        // Releasing a slot re-opens admission.
        drop(a);
        let _a2 = lease.try_admit(2).expect("slot reopened");
        drop(b);
    }

    #[test]
    fn in_flight_sessions_survive_idle_eviction() {
        let registry = SessionRegistry::new();
        let lease = registry.lease("busy");
        registry.lease("idle");
        let guard = lease.try_admit(1).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(registry.evict_idle(Duration::ZERO), vec!["idle"]);
        assert_eq!(registry.names(), vec!["busy"]);
        drop(guard);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(registry.evict_idle(Duration::ZERO), vec!["busy"]);
    }

    #[test]
    fn poisoned_sessions_are_replaced_with_fresh_state() {
        let registry = Arc::new(SessionRegistry::new());
        let lease = registry.lease("s");
        {
            let mut session = lease.handle().lock().unwrap();
            apply(
                &mut session,
                Command::parse("generate pop biased n=40 seed=1").unwrap(),
            )
            .unwrap();
        }
        // Panic while holding the session lock (what a crashing command
        // does on a pool worker).
        let handle = Arc::clone(lease.handle());
        let _ = std::thread::spawn(move || {
            let _guard = handle.lock().unwrap();
            panic!("command blew up while holding the session");
        })
        .join();
        assert!(lease.is_poisoned());
        // A healthy name is never replaced; the poisoned one is.
        assert!(!registry.replace_poisoned("ghost"));
        assert!(registry.replace_poisoned("s"));
        // Second detector of the same poisoning races benignly.
        assert!(!registry.replace_poisoned("s"));
        // Re-attaching under the name reaches a fresh, working session.
        let fresh = registry.lease("s");
        assert!(!fresh.is_poisoned());
        assert!(fresh.handle().lock().unwrap().dataset_names().is_empty());
    }

    #[test]
    fn registry_sessions_share_one_dataset_store() {
        let registry = SessionRegistry::new();
        let a = registry.attach_or_create("a");
        let b = registry.attach_or_create("b");
        for handle in [&a, &b] {
            let mut session = handle.lock().unwrap();
            apply(
                &mut session,
                Command::parse("generate pop biased n=40 seed=1").unwrap(),
            )
            .unwrap();
        }
        // Both sessions loaded identical content, so the shared store holds
        // it once and the handles are pointer-equal views of it.
        assert_eq!(registry.store().stats().datasets, 1);
        let ha = a.lock().unwrap().dataset_handle("pop").unwrap().clone();
        let hb = b.lock().unwrap().dataset_handle("pop").unwrap().clone();
        assert!(ha.shares_storage_with(&hb));
    }

    #[test]
    fn registry_sessions_share_one_market_memo_that_outlives_eviction() {
        let registry = SessionRegistry::new();
        let stream = "stream taskrabbit errands n=200 seed=4 rounds=2";
        for name in ["a", "b"] {
            let handle = registry.attach_or_create(name);
            let mut session = handle.lock().unwrap();
            apply(&mut session, Command::parse(stream).unwrap()).unwrap();
        }
        let stats = registry.markets().stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
        // A re-created session still finds the market.
        registry.evict("a").unwrap();
        let handle = registry.attach_or_create("a");
        apply(&mut handle.lock().unwrap(), Command::parse(stream).unwrap()).unwrap();
        assert_eq!(registry.markets().stats().hits, 2);
    }

    #[test]
    fn evict_idle_expires_only_stale_sessions() {
        let registry = SessionRegistry::new();
        registry.attach_or_create("old");
        registry.attach_or_create("fresh");
        std::thread::sleep(Duration::from_millis(30));
        // Re-attaching refreshes the idle clock.
        registry.attach("fresh").unwrap();
        let evicted = registry.evict_idle(Duration::from_millis(25));
        assert_eq!(evicted, vec!["old"]);
        assert_eq!(registry.names(), vec!["fresh"]);
        // A zero TTL expires everything not attached in this instant.
        std::thread::sleep(Duration::from_millis(1));
        let evicted = registry.evict_idle(Duration::ZERO);
        assert_eq!(evicted, vec!["fresh"]);
        assert!(registry.is_empty());
        // Idempotent on an empty registry.
        assert!(registry.evict_idle(Duration::ZERO).is_empty());
    }
}
