//! The system registry: parse/compile each system **once**, share the
//! compiled [`Oracle`] across every connection.
//!
//! Systems are keyed by [`SystemDesc::content_key`] — a stable hash of
//! the registration content — so re-registering an identical
//! description (any client, any connection) returns the existing entry
//! without recompiling. The key is a 64-bit FNV digest, not a name:
//! every entry keeps its [`SystemDesc`] and a hit is compared against
//! it, so two different descriptions that collide get a structured
//! `invalid` error instead of each other's system.
//!
//! The map lock is held only to look up or change a slot, never across
//! a build. A fresh key gets an *in-flight* slot; the registering
//! thread then releases the lock and parses, compiles and builds the
//! [`Oracle`]. A concurrent registration of the same content parks on
//! that slot's [`Condvar`] until the build finishes and then shares its
//! result, which is the compile-once guarantee the e2e tests assert
//! via telemetry (`CompileFinish` count stays 1). [`Registry::get`],
//! [`Registry::list`] and registrations of other keys never wait on a
//! compile. A failed build removes its slot and hands its error to the
//! parked callers; the next registration of that content builds again.
//!
//! Entries live for the life of the process: the [`System`] is leaked
//! into `&'static` so the borrowed `Oracle<'static>` needs no
//! self-referential tricks (core forbids `unsafe`). The registry is
//! therefore *capacity-capped* rather than evicting — registration past
//! the cap (in-flight slots count) is refused as an admission-control
//! decision, not silently absorbed as an unbounded leak.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use sd_core::{examples, CompileBudget, Engine, Oracle, Sink, System};

use crate::proto::{ErrorKind, SystemDesc, WireError};

/// One registered system: the leaked [`System`] and its compile-once
/// [`Oracle`], shared (the Oracle is `Sync`) by every connection thread.
pub struct SystemEntry {
    /// The registry key ([`SystemDesc::content_key`]).
    pub key: u64,
    /// Human-readable description for stats/logs.
    pub desc: String,
    /// The registered content, compared on every hit of `key`.
    pub content: SystemDesc,
    /// The system, alive for the life of the process.
    pub system: &'static System,
    /// The shared compiled query session.
    pub oracle: Oracle<'static>,
}

impl std::fmt::Debug for SystemEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemEntry")
            .field("key", &self.key)
            .field("desc", &self.desc)
            .finish_non_exhaustive()
    }
}

type BuildResult = Result<Arc<SystemEntry>, WireError>;

/// A build in progress: the content being built and, once the builder
/// finishes, its result. Same-content registrations park on `done`.
struct InFlight {
    content: SystemDesc,
    result: Mutex<Option<BuildResult>>,
    done: Condvar,
}

impl InFlight {
    fn wait(&self) -> BuildResult {
        let mut result = self.result.lock().expect("in-flight lock");
        loop {
            if let Some(r) = &*result {
                return r.clone();
            }
            result = self.done.wait(result).expect("in-flight lock");
        }
    }
}

enum Slot {
    Ready(Arc<SystemEntry>),
    Building(Arc<InFlight>),
}

/// Test-only hook run by the building thread after its slot is in
/// place and the map lock is released; an `Err` fails the build.
#[cfg(test)]
type BuildHook = Arc<dyn Fn(&SystemDesc) -> Result<(), WireError> + Send + Sync>;

/// The registry. See the module docs for the sharing model.
pub struct Registry {
    slots: Mutex<HashMap<u64, Slot>>,
    cap: usize,
    budget: CompileBudget,
    sink: Option<Arc<dyn Sink>>,
    #[cfg(test)]
    hook: Mutex<Option<BuildHook>>,
}

/// Removes (on failure) or fills (on success) the builder's slot and
/// wakes its parked callers, also when the build panics.
struct Finish<'a> {
    registry: &'a Registry,
    key: u64,
    in_flight: Arc<InFlight>,
    result: Option<BuildResult>,
}

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        let result = self
            .result
            .take()
            .unwrap_or_else(|| Err(WireError::new(ErrorKind::Internal, "system build panicked")));
        // No panics in `drop`: both guarded values are replaced whole,
        // so a poisoned lock still holds a consistent value.
        {
            let mut slots = self
                .registry
                .slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match &result {
                Ok(entry) => slots.insert(self.key, Slot::Ready(Arc::clone(entry))),
                Err(_) => slots.remove(&self.key),
            };
        }
        *self
            .in_flight
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.in_flight.done.notify_all();
    }
}

fn build_example(name: &str, params: &[i64]) -> Result<System, WireError> {
    let arity_err = |want: usize| {
        WireError::new(
            ErrorKind::Invalid,
            format!("example `{name}` takes {want} integer parameter(s)"),
        )
    };
    let p = |i: usize, want: usize| params.get(i).copied().ok_or_else(|| arity_err(want));
    let built = match name {
        "copy" => examples::copy_system(p(0, 1)?),
        "threshold" => examples::threshold_system(p(0, 1)?),
        "guarded_copy" => examples::guarded_copy_system(p(0, 1)?),
        "flag_copy" => examples::flag_copy_system(p(0, 1)?),
        "nontransitive" => examples::nontransitive_system(p(0, 1)?),
        "left_right" => examples::left_right_system(p(0, 1)?),
        "m1m2" => examples::m1m2_system(p(0, 1)?),
        "oscillator" => examples::oscillator_system(p(0, 1)?),
        "mod_adder" => {
            let bits = u32::try_from(p(0, 1)?)
                .map_err(|_| WireError::new(ErrorKind::Invalid, "mod_adder bits must be ≥ 0"))?;
            examples::mod_adder_system(bits)
        }
        "pointer_chain" => {
            let n = usize::try_from(p(0, 2)?)
                .map_err(|_| WireError::new(ErrorKind::Invalid, "pointer_chain n must be ≥ 0"))?;
            examples::pointer_chain_system(n, p(1, 2)?)
        }
        other => {
            return Err(WireError::new(
                ErrorKind::Invalid,
                format!("unknown example `{other}`"),
            ))
        }
    };
    built.map_err(|e| WireError::new(ErrorKind::Invalid, e.to_string()))
}

fn build_system(desc: &SystemDesc) -> Result<System, WireError> {
    match desc {
        SystemDesc::Example { name, params } => build_example(name, params),
        SystemDesc::Program { source } => {
            let prog = sd_lang::parse(source)
                .map_err(|e| WireError::new(ErrorKind::Invalid, e.to_string()))?;
            let compiled = sd_lang::compile(&prog)
                .map_err(|e| WireError::new(ErrorKind::Invalid, e.to_string()))?;
            Ok(compiled.system)
        }
    }
}

fn collision(key: u64) -> WireError {
    WireError::new(
        ErrorKind::Invalid,
        format!("registry key {key} is taken by different content; not registered"),
    )
}

impl Registry {
    /// A registry holding at most `cap` systems, compiling with
    /// `budget`. When `sink` is present every compile reports telemetry
    /// through it (and so do all queries run on the shared Oracles).
    pub fn new(cap: usize, budget: CompileBudget, sink: Option<Arc<dyn Sink>>) -> Registry {
        Registry {
            slots: Mutex::new(HashMap::new()),
            cap,
            budget,
            sink,
            #[cfg(test)]
            hook: Mutex::new(None),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Slot>> {
        self.slots.lock().expect("registry lock")
    }

    /// Registers (or looks up) the system described by `desc`. Same
    /// content ⇒ same entry, compiled exactly once. The returned flag is
    /// `true` when this call actually built the system (a *cold*
    /// registration) and `false` when it found an existing entry — the
    /// server labels registration latency with it.
    pub fn register(&self, desc: &SystemDesc) -> Result<(Arc<SystemEntry>, bool), WireError> {
        self.register_keyed(desc, desc.content_key())
    }

    /// [`Registry::register`] under an explicit key; tests use it to
    /// force digest collisions.
    fn register_keyed(
        &self,
        desc: &SystemDesc,
        key: u64,
    ) -> Result<(Arc<SystemEntry>, bool), WireError> {
        let in_flight = {
            let mut slots = self.lock();
            match slots.get(&key) {
                Some(Slot::Ready(entry)) if entry.content == *desc => {
                    return Ok((Arc::clone(entry), false))
                }
                Some(Slot::Building(b)) if b.content == *desc => {
                    let b = Arc::clone(b);
                    drop(slots);
                    return b.wait().map(|entry| (entry, false));
                }
                Some(_) => return Err(collision(key)),
                None => {}
            }
            if slots.len() >= self.cap {
                return Err(WireError::new(
                    ErrorKind::Overloaded,
                    format!("registry full ({} systems); not accepting more", self.cap),
                ));
            }
            let in_flight = Arc::new(InFlight {
                content: desc.clone(),
                result: Mutex::new(None),
                done: Condvar::new(),
            });
            slots.insert(key, Slot::Building(Arc::clone(&in_flight)));
            in_flight
        };
        let mut finish = Finish {
            registry: self,
            key,
            in_flight,
            result: None,
        };
        let built = self.build(key, desc);
        finish.result = Some(built.clone());
        drop(finish);
        built.map(|entry| (entry, true))
    }

    /// Parses, compiles and wraps `desc` in its shared Oracle. Runs
    /// with no registry lock held.
    fn build(&self, key: u64, desc: &SystemDesc) -> BuildResult {
        #[cfg(test)]
        {
            let hook = self.hook.lock().expect("hook lock").clone();
            if let Some(hook) = hook {
                hook(desc)?;
            }
        }
        let system: &'static System = Box::leak(Box::new(build_system(desc)?));
        let oracle = match &self.sink {
            Some(sink) => Oracle::with_sink(system, Engine::Auto, &self.budget, Arc::clone(sink)),
            None => Oracle::with_engine(system, Engine::Auto, &self.budget),
        }
        .map_err(|e| WireError::new(ErrorKind::Invalid, e.to_string()))?;
        Ok(Arc::new(SystemEntry {
            key,
            desc: desc.describe(),
            content: desc.clone(),
            system,
            oracle,
        }))
    }

    /// Looks up a registered system by key. A system still being built
    /// is not registered yet.
    pub fn get(&self, key: u64) -> Option<Arc<SystemEntry>> {
        match self.lock().get(&key) {
            Some(Slot::Ready(entry)) => Some(Arc::clone(entry)),
            _ => None,
        }
    }

    /// `(key, description)` of every registered system, sorted by key
    /// (deterministic stats output).
    pub fn list(&self) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = self
            .lock()
            .values()
            .filter_map(|slot| match slot {
                Slot::Ready(e) => Some((e.key, e.desc.clone())),
                Slot::Building(_) => None,
            })
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Number of registered systems (builds in flight excluded).
    pub fn len(&self) -> usize {
        self.lock()
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// Maximum number of systems the registry admits.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Whether no system is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn desc(k: i64) -> SystemDesc {
        SystemDesc::Example {
            name: "guarded_copy".into(),
            params: vec![k],
        }
    }

    /// Holds builds of one description open until the test decides how
    /// they end.
    #[derive(Default)]
    struct Gate {
        state: Mutex<(usize, Option<Result<(), WireError>>)>,
        cv: Condvar,
    }

    impl Gate {
        fn pass(&self) -> Result<(), WireError> {
            let mut s = self.state.lock().unwrap();
            s.0 += 1;
            self.cv.notify_all();
            loop {
                if let Some(r) = &s.1 {
                    return r.clone();
                }
                s = self.cv.wait(s).unwrap();
            }
        }

        fn wait_entered(&self, n: usize) {
            let mut s = self.state.lock().unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while s.0 < n {
                let left = deadline.saturating_duration_since(Instant::now());
                assert!(!left.is_zero(), "build never reached the hook");
                s = self.cv.wait_timeout(s, left).unwrap().0;
            }
        }

        fn open(&self, r: Result<(), WireError>) {
            self.state.lock().unwrap().1 = Some(r);
            self.cv.notify_all();
        }
    }

    /// A registry whose builds of `held` stop at `gate`.
    fn gated(cap: usize, held: SystemDesc) -> (Arc<Registry>, Arc<Gate>) {
        let reg = Arc::new(Registry::new(cap, CompileBudget::default(), None));
        let gate = Arc::new(Gate::default());
        let g = Arc::clone(&gate);
        *reg.hook.lock().unwrap() = Some(Arc::new(
            move |d: &SystemDesc| {
                if *d == held {
                    g.pass()
                } else {
                    Ok(())
                }
            },
        ));
        (reg, gate)
    }

    /// Waits until `waiters` callers are parked on `key`'s build (the
    /// slot and the builder hold the other two references).
    fn wait_parked(reg: &Registry, key: u64, waiters: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let parked = match reg.lock().get(&key) {
                Some(Slot::Building(b)) => Arc::strong_count(b) - 2,
                _ => 0,
            };
            if parked >= waiters {
                return;
            }
            assert!(Instant::now() < deadline, "{parked}/{waiters} parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn spawn_register(
        reg: &Arc<Registry>,
        d: SystemDesc,
    ) -> std::thread::JoinHandle<Result<(Arc<SystemEntry>, bool), WireError>> {
        let reg = Arc::clone(reg);
        std::thread::spawn(move || reg.register(&d))
    }

    #[test]
    fn concurrent_same_content_builds_once_and_shares() {
        let (reg, gate) = gated(4, desc(2));
        let key = desc(2).content_key();
        let threads: Vec<_> = (0..8).map(|_| spawn_register(&reg, desc(2))).collect();
        gate.wait_entered(1);
        wait_parked(&reg, key, 7);
        gate.open(Ok(()));
        let results: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().unwrap().unwrap())
            .collect();
        assert_eq!(results.iter().filter(|(_, fresh)| *fresh).count(), 1);
        assert!(results.iter().all(|(e, _)| Arc::ptr_eq(e, &results[0].0)));
        assert_eq!(results[0].0.oracle.stats().compiles, 1);
        assert_eq!(gate.state.lock().unwrap().0, 1, "one build ran");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn a_held_build_blocks_neither_reads_nor_other_keys() {
        let (reg, gate) = gated(4, desc(2));
        let (ready, _) = reg.register(&desc(4)).unwrap();
        let held = spawn_register(&reg, desc(2));
        gate.wait_entered(1);
        // Everything else runs on another thread so a regression fails
        // the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let r = Arc::clone(&reg);
        let ready_key = ready.key;
        let checker = std::thread::spawn(move || {
            let got = r.get(ready_key).map(|e| e.key);
            let other = r.register(&desc(3)).map(|(e, fresh)| (e.key, fresh));
            let listed = r.list().len();
            let pending = r.get(desc(2).content_key()).is_none();
            tx.send((got, other, listed, pending)).unwrap();
        });
        let (got, other, listed, pending) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a held build blocked another caller");
        checker.join().unwrap();
        assert_eq!(got, Some(ready_key));
        assert_eq!(other, Ok((desc(3).content_key(), true)));
        assert_eq!(listed, 2, "the in-flight system is not listed");
        assert!(pending, "an in-flight system is not servable yet");
        gate.open(Ok(()));
        assert!(held.join().unwrap().unwrap().1);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn failed_build_clears_its_slot_and_wakes_waiters() {
        let (reg, gate) = gated(4, desc(2));
        let key = desc(2).content_key();
        let builder = spawn_register(&reg, desc(2));
        gate.wait_entered(1);
        let waiter = spawn_register(&reg, desc(2));
        wait_parked(&reg, key, 1);
        let injected = WireError::new(ErrorKind::Invalid, "injected build failure");
        gate.open(Err(injected.clone()));
        assert_eq!(builder.join().unwrap().unwrap_err(), injected);
        assert_eq!(waiter.join().unwrap().unwrap_err(), injected);
        assert!(reg.lock().get(&key).is_none(), "failed slot removed");
        assert!(reg.is_empty());
        *reg.hook.lock().unwrap() = None;
        let (entry, fresh) = reg.register(&desc(2)).unwrap();
        assert!(fresh, "the retry builds");
        assert_eq!(entry.oracle.stats().compiles, 1);
    }

    #[test]
    fn panicking_build_frees_its_key() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        *reg.hook.lock().unwrap() = Some(Arc::new(|_: &SystemDesc| panic!("injected")));
        let panicked = std::thread::scope(|s| s.spawn(|| reg.register(&desc(2))).join());
        assert!(panicked.is_err());
        assert!(reg.lock().get(&desc(2).content_key()).is_none());
        *reg.hook.lock().unwrap() = None;
        assert!(reg.register(&desc(2)).unwrap().1, "the retry builds");
    }

    #[test]
    fn cap_counts_builds_in_flight() {
        let (reg, gate) = gated(1, desc(2));
        let first = spawn_register(&reg, desc(2));
        gate.wait_entered(1);
        let second = reg.register(&desc(3)).unwrap_err();
        assert_eq!(second.kind, ErrorKind::Overloaded);
        gate.open(Ok(()));
        assert!(first.join().unwrap().is_ok());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn key_collision_is_refused_not_aliased() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let (entry, _) = reg.register_keyed(&desc(2), 7).unwrap();
        let err = reg.register_keyed(&desc(3), 7).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Invalid);
        assert!(err.message.contains("different content"));
        // The owner keeps its entry; the same content still hits.
        let (again, fresh) = reg.register_keyed(&desc(2), 7).unwrap();
        assert!(Arc::ptr_eq(&entry, &again) && !fresh);
        assert_eq!(reg.get(7).unwrap().content, desc(2));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn key_collision_with_a_build_in_flight_does_not_wait() {
        let (reg, gate) = gated(4, desc(2));
        let r = Arc::clone(&reg);
        let builder = std::thread::spawn(move || r.register_keyed(&desc(2), 7));
        gate.wait_entered(1);
        let err = reg.register_keyed(&desc(3), 7).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Invalid);
        gate.open(Ok(()));
        assert_eq!(builder.join().unwrap().unwrap().0.content, desc(2));
    }

    #[test]
    fn same_content_compiles_once() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let (a, fresh_a) = reg.register(&desc(2)).unwrap();
        let (b, fresh_b) = reg.register(&desc(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(fresh_a, "first registration builds");
        assert!(!fresh_b, "second registration reuses");
        assert_eq!(a.oracle.stats().compiles, 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_content_distinct_entries() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let (a, _) = reg.register(&desc(2)).unwrap();
        let (b, _) = reg.register(&desc(3)).unwrap();
        assert_ne!(a.key, b.key);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.cap(), 4);
    }

    #[test]
    fn cap_refuses_further_registrations() {
        let reg = Registry::new(1, CompileBudget::default(), None);
        reg.register(&desc(2)).unwrap();
        let err = reg.register(&desc(3)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Overloaded);
        // The existing entry is still servable.
        assert!(reg.register(&desc(2)).is_ok());
    }

    #[test]
    fn unknown_example_is_invalid() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let err = reg
            .register(&SystemDesc::Example {
                name: "no_such".into(),
                params: vec![],
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Invalid);
    }

    #[test]
    fn program_registration_compiles() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let (entry, _) = reg
            .register(&SystemDesc::Program {
                source: "var x: bool; var y: bool;\ny := x;".into(),
            })
            .unwrap();
        assert!(entry.system.universe().obj("x").is_ok());
    }

    #[test]
    fn bad_program_is_structured_error() {
        let reg = Registry::new(4, CompileBudget::default(), None);
        let err = reg
            .register(&SystemDesc::Program {
                source: "var x bool".into(),
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Invalid);
    }
}
