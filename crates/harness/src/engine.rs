//! The experiment engine: a parallel, cache-backed plan executor.

use crate::cache::{config_key, Annotation, Cache, EngineStats, TraceKey};
use crate::crosscheck::{cross_check, CrossCheckReport};
use crate::error::{HarnessError, Phase};
use crate::plan::{JobSpec, MachineModel, Plan};
use crate::valueflow::{static_hints, value_flow_check, ValueFlowCheckReport};
use lvp_isa::AsmProfile;
use lvp_lang::OptLevel;
use lvp_predictor::characterize::{Characterization, Characterizer};
use lvp_predictor::{LvpConfig, LvpUnit, PredictorKind};
use lvp_uarch::SimResult;
use lvp_workloads::{Workload, WorkloadRun};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The workload subset used by `--fast` smoke runs: the smallest suite
/// members (all under 2.5M dynamic instructions), mixing integer and
/// floating-point benchmarks. Per-workload result rows are identical to
/// a full run because every measurement is per-workload.
pub const FAST_WORKLOADS: [&str; 4] = ["sc", "xlisp", "grep", "doduc"];

/// The experiment engine: owns the worker budget, the workload suite
/// under evaluation, and the process-wide caches.
///
/// One engine should be shared by every experiment a process runs — the
/// caches are what make `lvp bench --all` amortize trace generation
/// across the whole evaluation.
pub struct Engine {
    threads: usize,
    suite: Vec<Workload>,
    predictor: Option<PredictorKind>,
    cache: Cache,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// Engine over the full 17-workload suite with one worker per
    /// available CPU.
    ///
    /// On Linux with glibc, the first engine of a process also pins the
    /// allocator's mmap threshold at 1 MiB, so that a freed large block
    /// goes back to the system at once and a run's peak memory does not
    /// depend on which worker freed what first.
    pub fn new() -> Engine {
        pin_mmap_threshold();
        Engine {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            suite: lvp_workloads::suite(),
            predictor: None,
            cache: Cache::new(),
        }
    }

    /// Engine over the [`FAST_WORKLOADS`] smoke subset.
    pub fn fast() -> Engine {
        Engine::new()
            .with_workload_names(&FAST_WORKLOADS)
            .expect("fast subset names are valid")
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_threads(mut self, n: usize) -> Engine {
        self.threads = n.max(1);
        self
    }

    /// Overrides the predictor backend for every annotation this
    /// engine computes: each configuration's [`LvpConfig::kind`] is
    /// replaced by `kind` before the predict phase runs (and before
    /// cache keying, so distinct kinds never collide). The cross-check
    /// oracle is unaffected — it always judges the paper's last-value
    /// unit.
    pub fn with_predictor(mut self, kind: PredictorKind) -> Engine {
        self.predictor = Some(kind);
        self
    }

    /// The predictor-kind override, if one was set.
    pub fn predictor(&self) -> Option<PredictorKind> {
        self.predictor
    }

    /// Restricts the engine to a named workload subset: suite members
    /// in suite order, then any non-suite names (e.g. the `synth-*`
    /// adversarial workloads) in the order given.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError`] (phase [`Phase::Plan`]) for unknown
    /// names.
    pub fn with_workload_names(mut self, names: &[&str]) -> Result<Engine, HarnessError> {
        for n in names {
            if Workload::by_name(n).is_none() {
                return Err(HarnessError::new(
                    Phase::Plan,
                    *n,
                    "unknown workload (see `lvp suite`)",
                ));
            }
        }
        let mut suite: Vec<Workload> = lvp_workloads::suite()
            .into_iter()
            .filter(|w| names.contains(&w.name))
            .collect();
        for n in names {
            if !suite.iter().any(|w| w.name == *n) {
                suite.extend(Workload::by_name(n));
            }
        }
        self.suite = suite;
        Ok(self)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The workload suite experiments should plan over.
    pub fn suite(&self) -> &[Workload] {
        &self.suite
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> EngineStats {
        self.cache.stats()
    }

    /// Bytes held by the traces cached so far: the sum of their
    /// [`Trace::heap_bytes`](lvp_trace::Trace::heap_bytes).
    pub fn trace_bytes(&self) -> u64 {
        self.cache.trace_bytes()
    }

    /// A pipeline context for ad-hoc (non-plan) use of the caches.
    pub fn ctx(&self) -> Ctx<'_> {
        Ctx { engine: self }
    }

    /// Executes a plan's job matrix and merges the per-job results.
    ///
    /// Jobs are distributed over `threads` scoped workers; results are
    /// merged **in plan order**, never completion order, so the output
    /// is identical at any worker count. On failure the error of the
    /// lowest-indexed failing job is returned (also deterministic).
    ///
    /// A panic never escapes: one inside a pipeline stage is that
    /// stage's cached error (see [`Ctx`]), and one in the rest of a job
    /// body fails the job in [`Phase::Plan`], naming its workload. The
    /// engine stays usable for the next plan.
    ///
    /// # Errors
    ///
    /// Propagates the first (by job index) [`HarnessError`] any job
    /// produced.
    pub fn run<T: Send>(&self, plan: Plan<T>) -> Result<Vec<T>, HarnessError> {
        let n = plan.jobs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let ctx = self.ctx();
        let slots: Vec<Mutex<Option<Result<T, HarnessError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = &plan.jobs[i];
                    let out = catch_unwind(AssertUnwindSafe(|| (plan.run)(job, &ctx)))
                        .unwrap_or_else(|payload| {
                            Err(HarnessError::new(
                                Phase::Plan,
                                job.workload.name,
                                format!("job {} panicked: {}", job.key(), panic_message(&*payload)),
                            ))
                        });
                    if out.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        let mut results = Vec::with_capacity(n);
        let mut first_error: Option<HarnessError> = None;
        for slot in slots {
            match slot.into_inner().expect("result slot poisoned") {
                Some(Ok(v)) => results.push(v),
                // Slots are visited in job-index order, so the error
                // kept is the lowest-indexed one — deterministic at any
                // worker count. `None` slots were skipped because the
                // run aborted after that error.
                Some(Err(e)) if first_error.is_none() => first_error = Some(e),
                _ => {}
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(results),
        }
    }
}

/// The text of a panic payload: the `panic!` message, when it has one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "(non-string panic payload)"
    }
}

/// Cached access to the three pipeline phases; handed to every plan job
/// and available directly via [`Engine::ctx`].
///
/// Each stage computes under `catch_unwind`: a panic in it becomes a
/// [`HarnessError`] in that stage's [`Phase`], naming the workload and
/// carrying the panic message, and is cached like any other error.
pub struct Ctx<'e> {
    engine: &'e Engine,
}

impl Ctx<'_> {
    fn trace_key(w: &Workload, profile: AsmProfile, opt: OptLevel) -> TraceKey {
        (w.name, profile, opt)
    }

    /// Computes one stage of `w`: runs `f`, turning a panic into an
    /// error in `phase`, and charges its wall time to the per-stage
    /// counter `counter` (the cheap ns accounting behind `lvp bench`'s
    /// stage breakdown; one `Instant` pair per cache miss, nothing per
    /// entry).
    fn stage<T>(
        counter: &AtomicU64,
        phase: Phase,
        w: &Workload,
        f: impl FnOnce() -> Result<T, HarnessError>,
    ) -> Result<T, HarnessError> {
        let start = std::time::Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            Err(HarnessError::new(
                phase,
                w.name,
                format!("panicked: {}", panic_message(&*payload)),
            ))
        });
        counter.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Phase 1, cached: the full workload run (trace + program +
    /// output) for `(workload, profile, opt)`, from
    /// [`Workload::run_at`]. Computed exactly once per process and
    /// shared across all consumers.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError`] (phase [`Phase::Trace`]) if compilation
    /// fails, simulation faults or exhausts its fuel, or the self-check
    /// fails.
    pub fn workload_run(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
    ) -> Result<Arc<WorkloadRun>, HarnessError> {
        let cache = &self.engine.cache;
        cache
            .traces
            .get_or_compute(Self::trace_key(w, profile, opt), || {
                Self::stage(&cache.trace_ns, Phase::Trace, w, || {
                    w.run_at(profile, opt).map_err(|e| {
                        HarnessError::new(
                            Phase::Trace,
                            w.name,
                            format!("under {profile}/{opt:?}: {e}"),
                        )
                    })
                })
            })
    }

    /// Phase 2, cached: the LVP-unit annotation of a trace under a
    /// configuration. Keyed by config *content*, not name.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn annotation(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
        config: &LvpConfig,
    ) -> Result<Arc<Annotation>, HarnessError> {
        self.annotation_with_hints(w, profile, opt, config, false)
    }

    /// [`Ctx::annotation`] with the LVP unit optionally seeded from the
    /// cell's value-flow report ([`static_hints`]),
    /// which warms the LCT and the hybrid arbiter — the A/B primitive
    /// the hints ablation is built on. Hinted and cold passes are
    /// cached under distinct keys.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn annotation_with_hints(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
        config: &LvpConfig,
        hinted: bool,
    ) -> Result<Arc<Annotation>, HarnessError> {
        // Apply the engine-wide backend override before keying, so
        // sweeps over kinds are cached per kind.
        let rekinded;
        let config = match self.engine.predictor {
            Some(kind) if config.kind != kind => {
                rekinded = config.clone().builder().kind(kind).build();
                &rekinded
            }
            _ => config,
        };
        let run = self.workload_run(w, profile, opt)?;
        let key = (Self::trace_key(w, profile, opt), config_key(config), hinted);
        let cache = &self.engine.cache;
        cache.annotations.get_or_compute(key, || {
            Self::stage(&cache.annotate_ns, Phase::Annotate, w, || {
                let mut unit = LvpUnit::new(config.clone());
                if hinted {
                    let report = lvp_analyze::analyze_value_flow(&run.program);
                    unit.apply_hints(&static_hints(&report));
                }
                let outcomes = unit.annotate(&run.trace);
                Ok(Annotation {
                    outcomes,
                    stats: *unit.stats(),
                })
            })
        })
    }

    /// Phase 3, cached: the timing simulation of a trace on a machine
    /// model, with (`Some`) or without (`None`) LVP annotations.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn timing(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
        config: Option<&LvpConfig>,
        machine: &MachineModel,
    ) -> Result<Arc<SimResult>, HarnessError> {
        let run = self.workload_run(w, profile, opt)?;
        let annotation = config
            .map(|c| self.annotation(w, profile, opt, c))
            .transpose()?;
        let key = (
            Self::trace_key(w, profile, opt),
            config.map(config_key),
            machine.cache_key(),
        );
        let cache = &self.engine.cache;
        cache.timings.get_or_compute(key, || {
            Self::stage(&cache.timing_ns, Phase::Timing, w, || {
                let outcomes = annotation.as_ref().map(|a| a.outcomes.as_slice());
                Ok(machine.simulate(&run.trace, outcomes))
            })
        })
    }

    /// The static/dynamic cross-check oracle for one cell, cached like
    /// annotations (keyed by trace key + config *content*): the
    /// provenance pass's must-constant claims are verified against the
    /// cell's real trace and CVU event stream.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures (phase
    /// [`Phase::Analyze`](crate::Phase) belongs to the report itself,
    /// which never errors — a violated oracle is a *failing report*, not
    /// a harness error, so callers decide how loudly to fail).
    pub fn cross_check(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
        config: &LvpConfig,
    ) -> Result<Arc<CrossCheckReport>, HarnessError> {
        let run = self.workload_run(w, profile, opt)?;
        let key = (Self::trace_key(w, profile, opt), config_key(config));
        let cache = &self.engine.cache;
        cache.crosschecks.get_or_compute(key, || {
            Self::stage(&cache.crosscheck_ns, Phase::Analyze, w, || {
                let cell = format!("{}/{profile}/{opt:?}", w.name);
                Ok(cross_check(&run.program, &run.trace, config, cell))
            })
        })
    }

    /// The value-flow cross-check for one cell, cached by trace key
    /// alone (the check has no config axis — the emulated predictors
    /// are fixed): the value-flow pass's affine-stride and
    /// must-constant claims are judged against the cell's real trace,
    /// and `LVP014` under-approximations are collected.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures (a refuted claim is a
    /// *failing report*, not a harness error — same policy as
    /// [`Ctx::cross_check`]).
    pub fn value_flow_check(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
    ) -> Result<Arc<ValueFlowCheckReport>, HarnessError> {
        let run = self.workload_run(w, profile, opt)?;
        let key = Self::trace_key(w, profile, opt);
        let cache = &self.engine.cache;
        cache.value_flows.get_or_compute(key, || {
            Self::stage(&cache.value_flow_ns, Phase::Analyze, w, || {
                let cell = format!("{}/{profile}/{opt:?}", w.name);
                Ok(value_flow_check(&run.program, &run.trace, cell))
            })
        })
    }

    /// The workload characterization for one cell, cached by trace key
    /// alone (the metrics are predictor-independent): one streaming
    /// pass of the [`Characterizer`] over the cell's trace, yielding
    /// per-load-PC value-locality metrics and their roll-up.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn characterization(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
    ) -> Result<Arc<Characterization>, HarnessError> {
        let run = self.workload_run(w, profile, opt)?;
        let key = Self::trace_key(w, profile, opt);
        let cache = &self.engine.cache;
        cache.characterizations.get_or_compute(key, || {
            Self::stage(&cache.characterize_ns, Phase::Analyze, w, || {
                Ok(Characterizer::from_trace(&run.trace))
            })
        })
    }

    /// [`Ctx::workload_run`] for a job's own axes.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_run(&self, job: &JobSpec) -> Result<Arc<WorkloadRun>, HarnessError> {
        self.workload_run(&job.workload, job.profile, job.opt)
    }

    /// [`Ctx::annotation`] for a job's own axes (requires a config
    /// axis).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_annotation(&self, job: &JobSpec) -> Result<Arc<Annotation>, HarnessError> {
        self.annotation(&job.workload, job.profile, job.opt, job.config()?)
    }

    /// [`Ctx::cross_check`] for a job's own axes (requires a config
    /// axis).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_cross_check(&self, job: &JobSpec) -> Result<Arc<CrossCheckReport>, HarnessError> {
        self.cross_check(&job.workload, job.profile, job.opt, job.config()?)
    }

    /// [`Ctx::value_flow_check`] for a job's own axes.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_value_flow(&self, job: &JobSpec) -> Result<Arc<ValueFlowCheckReport>, HarnessError> {
        self.value_flow_check(&job.workload, job.profile, job.opt)
    }

    /// [`Ctx::characterization`] for a job's own axes.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_characterization(
        &self,
        job: &JobSpec,
    ) -> Result<Arc<Characterization>, HarnessError> {
        self.characterization(&job.workload, job.profile, job.opt)
    }

    /// [`Ctx::timing`] for a job's own axes (requires a machine axis;
    /// `with_lvp` selects whether the job's config axis is applied).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_timing(
        &self,
        job: &JobSpec,
        with_lvp: bool,
    ) -> Result<Arc<SimResult>, HarnessError> {
        let config = if with_lvp { Some(job.config()?) } else { None };
        self.timing(&job.workload, job.profile, job.opt, config, job.machine()?)
    }
}

/// Gives every heap block of 1 MiB or more a mapping of its own, which
/// `free` unmaps, for the rest of the process.
///
/// By default glibc raises its mmap threshold to the size of each such
/// block freed (up to 32 MiB); blocks below it then come from the
/// per-thread arenas, which keep them resident after they are freed. How
/// much stays resident depends on the order in which the workers
/// allocate and free, so identical runs of `lvp bench --all --fast
/// --threads 2` peaked anywhere between 247 and 257 MB over five runs on
/// a 2-CPU Xeon host. Pinned, all five peaked at 199 MB, and run times
/// did not move beyond their run-to-run spread (DESIGN.md §6.3).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::os::raw::c_int;
    use std::sync::Once;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    /// glibc's `M_MMAP_THRESHOLD` (`<malloc.h>`).
    const M_MMAP_THRESHOLD: c_int = -3;
    static PIN: Once = Once::new();
    PIN.call_once(|| {
        // SAFETY: `mallopt` only sets one of the allocator's tunables,
        // under the allocator's own lock.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 1 << 20);
        }
    });
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}
