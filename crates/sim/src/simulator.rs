//! The discrete-event cluster simulator.
//!
//! This is the substrate that stands in for the paper's 200-node EC2 deployment and
//! its trace-driven simulator. It models:
//!
//! * a cluster of machines × slots with machine heterogeneity and per-copy straggler
//!   multipliers,
//! * fair sharing of slots across concurrently active jobs (each job's *wave width*),
//! * per-job speculation policies consulted whenever a slot frees up,
//! * speculative copy races (first copy to finish wins, siblings are killed),
//! * deadline-bound job finalisation and error-bound completion detection,
//! * DAG stage unlocking and estimation of intermediate-stage time for deadline jobs
//!   (§5.2 of the paper),
//! * progress-style `trem` / `tnew` estimation with configurable accuracy.

use std::cell::OnceCell;
// grass: allow(unordered-iter-on-digest-path, "keyed lookup only; results are never taken from map iteration order")
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound as RangeBound;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use grass_core::{
    ActionKind, Bound, DeadlineIndex, EstimatorConfig, JobId, JobOutcome, JobSpec, JobView,
    PolicyFactory, Time, TnewEstimate,
};

use crate::cluster::ClusterConfig;
use crate::event::{Event, EventQueue};
use crate::machine::{Machine, SlotPool};
use crate::runtime::{CompletionEffect, JobRuntime};
use crate::stats::TimeWeighted;
use crate::trace::{NullSink, SimTraceEvent, TraceSink};

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cluster layout and straggler behaviour.
    pub cluster: ClusterConfig,
    /// Estimator accuracy model.
    pub estimator: EstimatorConfig,
    /// RNG seed; every random draw in the run derives from it.
    pub seed: u64,
}

impl SimConfig {
    /// Default configuration: the scaled EC2 cluster, paper-default estimator
    /// accuracy, seed 0.
    pub fn new() -> Self {
        SimConfig {
            cluster: ClusterConfig::ec2_scaled(),
            estimator: EstimatorConfig::paper_default(),
            seed: 0,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new()
    }
}

/// Work counters exported by the event core, used by the scale tests to verify
/// the O(affected-state) property empirically rather than by inspection.
///
/// The counters describe *simulator* work, not simulated outcomes: two engines
/// producing bit-identical [`SimResult`]s may (and should) report very different
/// counts here. They are excluded from result digests for that reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Events popped from the event queue (arrivals, copy finishes, deadlines).
    pub events_processed: u64,
    /// Per-job dispatcher and bookkeeping touches: candidate probes during
    /// dispatch, copy-finish handling, finalisations. A full-scan engine visits
    /// every live job per event, growing this as O(events × live jobs); the
    /// event core's indexes keep it near O(events + copies). The deferred
    /// statistics replay is deliberately *not* counted here: its total update
    /// count is fixed by the bit-exact float contract and identical across
    /// engines — the refactor changes *when* updates run, not how many.
    pub job_touches: u64,
    /// Policy `choose()` consultations (successful or declined).
    pub policy_consultations: u64,
}

/// Aggregate result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// One outcome per job, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Time of the last processed event.
    pub makespan: Time,
    /// Total copies launched across all jobs (originals + speculative).
    pub total_copies: usize,
    /// Time-averaged cluster utilisation over the run.
    pub avg_utilization: f64,
    /// Engine work counters (see [`SimStats`]); not part of any outcome digest.
    pub stats: SimStats,
}

impl SimResult {
    /// Outcomes of jobs scheduled by a given policy name.
    pub fn outcomes_for<'s>(
        &'s self,
        policy: &'s str,
    ) -> impl Iterator<Item = &'s JobOutcome> + 's {
        self.outcomes.iter().filter(move |o| o.policy == policy)
    }
}

/// Run a full simulation: feed `jobs` (in any order; arrivals are honoured) through a
/// cluster scheduled by policies from `factory`.
pub fn run_simulation(
    config: &SimConfig,
    jobs: Vec<JobSpec>,
    factory: &dyn PolicyFactory,
) -> SimResult {
    let mut sink = NullSink;
    Simulator::new(*config, jobs, factory, &mut sink).run()
}

/// Run a full simulation while streaming every scheduling-level event into `sink`.
///
/// The sink is strictly passive, so a traced run produces a [`SimResult`] identical
/// to what [`run_simulation`] would return for the same inputs.
pub fn run_simulation_traced(
    config: &SimConfig,
    jobs: Vec<JobSpec>,
    factory: &dyn PolicyFactory,
    sink: &mut dyn TraceSink,
) -> SimResult {
    Simulator::new(*config, jobs, factory, sink).run()
}

/// The indexed discrete-event engine.
///
/// Three indexes keep per-event work proportional to the *affected* state
/// rather than to every live job (the pre-refactor engine, preserved verbatim
/// in `grass_oracles::sim`, rescanned all of them per event):
///
/// * `free_slots` — a [`SlotPool`]: the same LIFO allocation order as before
///   (slot identity feeds the trace and copy durations), whose free count makes
///   `utilization()` O(1).
/// * `candidates` — an ordered `(allocated_slots, job id)` index over jobs that
///   are live, still have unfinished work, and have not held a decline since
///   their last copy finish. One dispatch probe is an O(log n) range step
///   instead of an O(n log n) collect-and-sort of every live job, and a job
///   whose policy held its decline (`JobView::hold_decline`) costs nothing
///   until one of its own copies finishes.
/// * `timeline` + per-job `stats_cursor` — the lazy statistics ledger. The old
///   engine settled every event by calling `update_stats` on *every* live job.
///   Those per-job time-weighted integrals feed GRASS's learned switching
///   (`Sample::from_outcome` consumes `avg_cluster_utilization` /
///   `avg_estimation_accuracy`), so their floating-point update sequence must
///   be replayed *exactly* — FP addition is not associative and any
///   re-bracketing changes scheduling decisions downstream. Instead of walking
///   all jobs per event, each settle appends one `(time, utilization)` entry to
///   a global timeline, and a job folds the pending entries in only when it is
///   next touched (launch, completion, finalisation). Between touches a job's
///   `allocated_slots` and measured accuracy cannot change (both are only
///   mutated by job-local operations, which all catch up first), so the
///   deferred replay applies bit-identical `update_stats(t, u)` calls in the
///   original order — same floats, batched into cache-friendly runs, with no
///   hash lookups or full-population walks per event.
///
/// Each live job also keeps its `TaskView` rows resident
/// ([`JobRuntime::task_views`]) instead of rebuilding every row per
/// consultation and per completion hook. `on_job_start`, `on_task_complete` and
/// `choose()` all read that table: built once at arrival
/// ([`JobRuntime::init_task_views`]) and kept current by the job's own events
/// alone (a launch re-derives its row; a completion swap-removes its own row
/// and, when it meets its stage's requirement, marks the next stage's rows
/// eligible), so it always holds the rows [`JobRuntime::build_task_views`]
/// would build, bit for bit, in an order that is not sorted. Views carry the
/// table's map from task id to row, so a lookup is one array read, and every
/// policy breaks ties by task id, never by row order. A row holds no job-wide
/// state and nothing that depends on `now`: each view carries the job's
/// [`TnewEstimate`] and its `now`, and policies derive `tnew` and `trem` on read
/// ([`JobView::tnew`], [`JobView::trem`]). So neither passing time nor the
/// per-work estimate a completion moves rewrites a row.
///
/// A finished job leaves `running` as soon as its outcome is recorded, so its
/// runtime, its task views and its policy are freed; every lookup treats a
/// missing job as finished.
struct Simulator<'a> {
    config: SimConfig,
    factory: &'a dyn PolicyFactory,
    sink: &'a mut dyn TraceSink,
    /// Scratch completion effect reused across copy-finish events (retires the
    /// two per-event `Vec` allocations of the slot-free path).
    effect_scratch: CompletionEffect,
    machines: Vec<Machine>,
    free_slots: SlotPool,
    total_slots: usize,
    // grass: allow(unordered-iter-on-digest-path, "keyed lookup only; dispatch order comes from the BTreeSet index below")
    pending: HashMap<JobId, JobSpec>,
    // grass: allow(unordered-iter-on-digest-path, "keyed lookup only; dispatch order comes from the BTreeSet index below")
    running: HashMap<JobId, JobRuntime>,
    /// Jobs in arrival order: every live job, and the finished ones since the
    /// last timeline compaction, which drops them.
    active_order: Vec<JobId>,
    /// Dispatch index: `(allocated_slots, job id)` for every job that is not
    /// done, still has unfinished work and is not holding a decline. Kept in
    /// lockstep with every launch / completion / finalisation.
    candidates: BTreeSet<(usize, u64)>,
    /// Jobs arrived and not yet finalised — the fair-share denominator, O(1).
    active_count: usize,
    /// Global settle ledger: one `(time, utilization)` entry per dispatch
    /// settle, consumed lazily per job via `stats_cursor` (see type docs).
    timeline: Vec<(Time, f64)>,
    /// Absolute index of `timeline[0]` (the prefix every live job has already
    /// consumed is compacted away).
    timeline_base: usize,
    /// Next absolute timeline length at which to attempt compaction.
    next_compact_check: usize,
    events: EventQueue,
    rng: StdRng,
    next_copy_id: u64,
    now: Time,
    util_stat: TimeWeighted,
    outcomes: Vec<JobOutcome>,
    total_copies: usize,
    mean_slowdown: f64,
    stats: SimStats,
}

impl<'a> Simulator<'a> {
    fn new(
        config: SimConfig,
        jobs: Vec<JobSpec>,
        factory: &'a dyn PolicyFactory,
        sink: &'a mut dyn TraceSink,
    ) -> Self {
        let machines = config.cluster.build_machines(config.seed);
        let free_slots = SlotPool::new(&machines);
        let total_slots = free_slots.total();
        let mut events = EventQueue::new();
        // grass: allow(unordered-iter-on-digest-path, "keyed lookup only; jobs are drained by arrival events, not map order")
        let mut pending = HashMap::with_capacity(jobs.len());
        for job in jobs {
            debug_assert!(job.validate().is_ok(), "invalid job spec {:?}", job.id);
            events.push(job.arrival, Event::JobArrival(job.id));
            pending.insert(job.id, job);
        }
        let mean_slowdown = config.cluster.mean_slowdown();
        Simulator {
            config,
            factory,
            sink,
            effect_scratch: CompletionEffect::default(),
            machines,
            free_slots,
            total_slots,
            pending,
            // grass: allow(unordered-iter-on-digest-path, "keyed lookup only; active_order keeps the deterministic walk order")
            running: HashMap::new(),
            active_order: Vec::new(),
            candidates: BTreeSet::new(),
            active_count: 0,
            timeline: Vec::new(),
            timeline_base: 0,
            next_compact_check: 4096,
            events,
            rng: StdRng::seed_from_u64(0),
            next_copy_id: 0,
            now: 0.0,
            util_stat: TimeWeighted::new(0.0, 0.0),
            outcomes: Vec::new(),
            total_copies: 0,
            mean_slowdown,
            stats: SimStats::default(),
        }
    }

    /// Fold every not-yet-consumed timeline entry into `job`'s time-weighted
    /// statistics. Bit-identical to the eager per-event settle: the entries are
    /// the exact `(time, utilization)` arguments the old engine passed, in the
    /// same order, and the job's local state cannot have changed since they
    /// were appended (every local mutation catches up first).
    fn catch_up_job(timeline: &[(Time, f64)], timeline_base: usize, job: &mut JobRuntime) {
        debug_assert!(job.stats_cursor >= timeline_base, "cursor compacted away");
        // grass: allow(panicky-lib, "cursor is debug-asserted >= base and never advances past the ledger end")
        for &(time, util) in &timeline[job.stats_cursor - timeline_base..] {
            job.update_stats(time, util);
        }
        job.stats_cursor = timeline_base + timeline.len();
    }

    /// Drop the timeline prefix every live job has already consumed. Checked
    /// only when the ledger doubles, so the O(jobs) minimum scan is amortised
    /// to nothing while memory stays proportional to the *unconsumed* suffix.
    fn maybe_compact_timeline(&mut self) {
        let end = self.timeline_base + self.timeline.len();
        if end < self.next_compact_check {
            return;
        }
        // Finished jobs are freed at once, so only live ones keep their place.
        let running = &self.running;
        self.active_order.retain(|id| running.contains_key(id));
        let min_cursor = self
            .active_order
            .iter()
            .filter_map(|id| running.get(id))
            .map(|j| j.stats_cursor)
            .min()
            .unwrap_or(end);
        let drop = min_cursor - self.timeline_base;
        if drop > 0 {
            self.timeline.drain(..drop);
            self.timeline_base = min_cursor;
        }
        self.next_compact_check = self.timeline_base + self.timeline.len().max(2048) * 2;
    }

    fn run(mut self) -> SimResult {
        self.rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(0x5EED));
        while let Some((time, event)) = self.events.pop() {
            self.stats.events_processed += 1;
            self.now = time;
            match event {
                Event::JobArrival(id) => self.handle_arrival(id),
                Event::CopyFinish { job, task, copy } => self.handle_copy_finish(job, task, copy),
                Event::JobDeadline(id) => self.handle_deadline(id),
            }
        }
        // Finalise anything still running (starved of slots).
        let leftover: Vec<JobId> = self
            .active_order
            .iter()
            .copied()
            .filter(|id| self.running.contains_key(id))
            .collect();
        for id in leftover {
            self.finalize_job(id);
        }
        SimResult {
            outcomes: self.outcomes,
            makespan: self.now,
            total_copies: self.total_copies,
            avg_utilization: self.util_stat.average(self.now),
            stats: self.stats,
        }
    }

    fn utilization(&self) -> f64 {
        if self.total_slots == 0 {
            return 0.0;
        }
        (self.total_slots - self.free_slots.free_len()) as f64 / self.total_slots as f64
    }

    fn fair_share(&self) -> usize {
        let active = self.active_count.max(1);
        (self.total_slots / active).max(1)
    }

    fn handle_arrival(&mut self, id: JobId) {
        let Some(spec) = self.pending.remove(&id) else {
            return;
        };
        self.sink.record(&SimTraceEvent::JobArrival {
            time: self.now,
            job: id,
        });
        let policy = self.factory.create(&spec);
        let mut runtime = JobRuntime::new(
            spec,
            policy,
            &self.config.estimator,
            self.now,
            &mut self.rng,
        );

        // Deadline-bound DAG jobs: derive the effective input-stage deadline by
        // subtracting an estimate of the intermediate stages' duration (§5.2).
        if let Bound::Deadline(deadline) = runtime.spec.bound {
            let input_deadline = if runtime.spec.dag_length() > 1 {
                let intermediate = self.estimate_intermediate_time(&runtime.spec);
                (deadline - intermediate).max(0.2 * deadline)
            } else {
                deadline
            };
            runtime.input_deadline = Some(input_deadline);
            self.events.push(
                runtime.spec.arrival + input_deadline,
                Event::JobDeadline(id),
            );
        }

        // Let the policy observe the job's initial state: the one build of its
        // resident task views.
        runtime.init_task_views(self.mean_slowdown);
        let view = Self::job_view(
            &runtime,
            &runtime.task_views,
            &runtime.deadline_index,
            self.now,
            self.fair_share(),
            self.utilization(),
            runtime.tnew_estimate(&self.config.estimator, self.mean_slowdown),
        );
        runtime.policy.on_job_start(&view);

        // The job consumes settle entries only from its arrival onwards (the
        // eager engine never updated jobs that had not arrived yet).
        runtime.stats_cursor = self.timeline_base + self.timeline.len();
        if runtime.has_unfinished_work() {
            self.candidates.insert((runtime.allocated_slots, id.0));
        }
        self.running.insert(id, runtime);
        self.active_order.push(id);
        self.active_count += 1;
        self.dispatch();
    }

    /// Rough estimate of how long the non-input stages of a DAG job will take,
    /// assuming the job keeps its fair share of slots and tasks take their mean work
    /// times the cluster's mean slowdown.
    fn estimate_intermediate_time(&self, spec: &JobSpec) -> Time {
        let share = self.fair_share().max(1) as f64;
        let mut total = 0.0;
        for (s, stage) in spec.stages.iter().enumerate().skip(1) {
            if stage.task_count == 0 {
                continue;
            }
            let work: f64 = spec
                .tasks
                .iter()
                .filter(|t| t.stage.value() as usize == s)
                .map(|t| t.work)
                .sum();
            let mean_work = work / stage.task_count as f64;
            let waves = (stage.task_count as f64 / share).ceil();
            total += waves * mean_work * self.mean_slowdown;
        }
        total
    }

    fn handle_copy_finish(&mut self, job_id: JobId, task: grass_core::TaskId, copy: u64) {
        let util = self.utilization();
        let fair = self.fair_share();
        let Some(job) = self.running.get_mut(&job_id) else {
            return;
        };
        self.stats.job_touches += 1;
        // Fold pending settle entries in before mutating the job's local state
        // (the entries must see the pre-completion allocation and accuracy).
        Self::catch_up_job(&self.timeline, self.timeline_base, job);
        let alloc_before = job.allocated_slots;
        let mut effect = std::mem::take(&mut self.effect_scratch);
        job.complete_copy_into(task, copy, self.now, &mut effect);
        if effect.stale {
            self.effect_scratch = effect;
            return;
        }
        self.sink.record(&SimTraceEvent::CopyFinish {
            time: self.now,
            job: job_id,
            task,
            copy,
            task_completed: effect.task_completed,
        });
        for &(killed_copy, slot) in &effect.killed_copies {
            self.sink.record(&SimTraceEvent::CopyKill {
                time: self.now,
                job: job_id,
                task,
                copy: killed_copy,
                slot,
            });
        }
        self.free_slots.extend(effect.freed_slots.iter().copied());
        // Re-key the dispatch index: the allocation shrank, and the job may
        // have run out of unfinished work.
        self.candidates.remove(&(alloc_before, job_id.0));
        if job.unfinished > 0 {
            self.candidates.insert((job.allocated_slots, job_id.0));
        }
        self.util_stat.update(self.now, util);
        job.update_stats(self.now, util);

        if effect.task_completed {
            let estimate = job.tnew_estimate(&self.config.estimator, self.mean_slowdown);
            let view = Self::job_view(
                job,
                &job.task_views,
                &job.deadline_index,
                self.now,
                fair,
                util,
                estimate,
            );
            job.policy.on_task_complete(&view, task);
        }

        // Error-bound jobs finish the moment their bound is satisfied.
        let satisfied = job.spec.bound.is_error() && job.bound_satisfied();
        self.effect_scratch = effect;
        if satisfied {
            self.finalize_job(job_id);
        }
        self.dispatch();
    }

    fn handle_deadline(&mut self, id: JobId) {
        self.finalize_job(id);
        self.dispatch();
    }

    /// Finish a running job: kill its copies, record its outcome and free its
    /// runtime. A job that already finished is no longer in `running`.
    fn finalize_job(&mut self, id: JobId) {
        let util = self.utilization();
        let Some(job) = self.running.get_mut(&id) else {
            return;
        };
        self.stats.job_touches += 1;
        Self::catch_up_job(&self.timeline, self.timeline_base, job);
        self.candidates.remove(&(job.allocated_slots, id.0));
        let freed = job.kill_all_copies(self.now);
        for &(task, copy, slot) in &freed {
            self.sink.record(&SimTraceEvent::CopyKill {
                time: self.now,
                job: id,
                task,
                copy,
                slot,
            });
        }
        self.free_slots
            .extend(freed.iter().map(|&(_, _, slot)| slot));
        job.update_stats(self.now, util);
        self.active_count -= 1;
        let outcome = job.outcome(self.now);
        self.sink.record(&SimTraceEvent::JobFinish {
            time: self.now,
            job: id,
            completed_input: outcome.completed_input_tasks,
            completed_total: outcome.completed_tasks,
        });
        job.policy.on_job_complete(&outcome);
        self.outcomes.push(outcome);
        self.running.remove(&id);
        self.util_stat.update(self.now, self.utilization());
    }

    #[allow(clippy::too_many_arguments)]
    fn job_view<'v>(
        job: &JobRuntime,
        views: &'v grass_core::TaskRows,
        deadline_index: &'v OnceCell<DeadlineIndex>,
        now: Time,
        fair_share: usize,
        utilization: f64,
        tnew_estimate: TnewEstimate,
    ) -> JobView<'v> {
        JobView {
            job: job.spec.id,
            now,
            arrival: job.spec.arrival,
            bound: job.spec.bound,
            input_deadline: job.input_deadline,
            total_input_tasks: job.spec.input_tasks(),
            completed_input_tasks: job.completed_input(),
            total_tasks: job.spec.total_tasks(),
            completed_tasks: job.completed_total(),
            tasks: views,
            tnew_estimate,
            deadline_index: Some(deadline_index),
            wave_width: job
                .allocated_slots
                .max(fair_share.min(job.spec.total_tasks())),
            cluster_utilization: utilization,
            estimation_accuracy: job.accuracy.accuracy(),
            decline_hold: std::cell::Cell::new(false),
        }
    }

    /// Hand out free slots: offer each free slot to the active job with the fewest
    /// allocated slots (max–min fair sharing without preemption) until no job wants a
    /// slot or no slots remain.
    ///
    /// One forward walk of the `candidates` index, ordered by `(allocated_slots, job
    /// id)` — the pre-refactor engine's collect-and-sort order. That engine restarted
    /// from the smallest key after every launch, re-asking every job that had just
    /// declined. Within one pass `now` and the fair share are fixed and a decliner's
    /// own state is untouched, so by the `SpeculationPolicy::choose` contract it
    /// declines again; the walk instead continues past the launcher, whose re-keyed
    /// entry lies ahead of the cursor exactly where the restarted walk would next
    /// reach it. Utilisation is re-read per probe, as each restart re-read it.
    fn dispatch(&mut self) {
        let fair = self.fair_share();
        let mut from = RangeBound::Unbounded;
        while !self.free_slots.is_empty() {
            let Some(&key) = self.candidates.range((from, RangeBound::Unbounded)).next() else {
                break;
            };
            from = RangeBound::Excluded(key);
            self.stats.job_touches += 1;
            let util = self.utilization();
            self.try_launch_for(JobId(key.1), fair, util);
        }
        // Settle: one global ledger entry instead of touching every live job.
        // Jobs fold the entry in lazily on their next touch (see type docs).
        let util = self.utilization();
        self.util_stat.update(self.now, util);
        self.timeline.push((self.now, util));
        self.maybe_compact_timeline();
    }

    /// Offer one free slot to `job_id`.
    fn try_launch_for(&mut self, job_id: JobId, fair_share: usize, utilization: f64) {
        let estimator = self.config.estimator;
        let Some(job) = self.running.get_mut(&job_id) else {
            return;
        };
        // A launch mutates `allocated_slots`; pending settle entries must be
        // folded in against the pre-launch value first.
        Self::catch_up_job(&self.timeline, self.timeline_base, job);
        if job.task_views.is_empty() {
            return;
        }
        let estimate = job.tnew_estimate(&estimator, self.mean_slowdown);
        let view = Self::job_view(
            job,
            &job.task_views,
            &job.deadline_index,
            self.now,
            fair_share,
            utilization,
            estimate,
        );
        self.stats.policy_consultations += 1;
        let Some(action) = job.policy.choose(&view) else {
            // A held decline stands until the job's own state changes, and only a
            // copy finish changes it: leave the index until that finish re-keys it.
            if view.is_decline_held() {
                self.candidates.remove(&(job.allocated_slots, job_id.0));
            }
            return;
        };

        // Validate the action against ground truth; a policy bug must not wedge or
        // corrupt the simulation.
        let idx = action.task.index();
        // grass: allow(panicky-lib, "short-circuit bounds check: the index is rejected before it is used")
        if idx >= job.tasks.len() || job.tasks[idx].finished {
            return;
        }
        // grass: allow(panicky-lib, "idx was bounds-checked against job.tasks.len() above")
        let task_running = !job.tasks[idx].copies.is_empty();
        if action.kind == ActionKind::Launch && task_running {
            return;
        }
        // grass: allow(panicky-lib, "idx was bounds-checked against job.tasks.len() above")
        if !job.stage_eligible(job.tasks[idx].spec.stage.value() as usize) {
            return;
        }

        let Some(slot) = self.free_slots.pop() else {
            return;
        };
        self.sink.record(&SimTraceEvent::Decision {
            time: self.now,
            job: job_id,
            task: action.task,
            kind: action.kind,
        });
        // grass: allow(panicky-lib, "slot came from this simulator's own SlotPool; machine indices are minted in range")
        let machine_slowdown = self.machines[slot.machine].slowdown;
        let straggle = self.config.cluster.straggler.sample(&mut self.rng);
        // grass: allow(panicky-lib, "idx was bounds-checked against job.tasks.len() above")
        let duration = (job.tasks[idx].spec.work * machine_slowdown * straggle).max(1e-6);
        let copy_id = self.next_copy_id;
        self.next_copy_id += 1;
        // grass: allow(panicky-lib, "idx was bounds-checked against job.tasks.len() above")
        let speculative = !job.tasks[idx].copies.is_empty();
        let alloc_before = job.allocated_slots;
        job.launch_copy(
            action.task,
            copy_id,
            slot,
            self.now,
            duration,
            &estimator,
            &mut self.rng,
        );
        self.candidates.remove(&(alloc_before, job_id.0));
        self.candidates.insert((job.allocated_slots, job_id.0));
        self.sink.record(&SimTraceEvent::CopyLaunch {
            time: self.now,
            job: job_id,
            task: action.task,
            copy: copy_id,
            slot,
            duration,
            speculative,
        });
        self.total_copies += 1;
        self.events.push(
            self.now + duration,
            Event::CopyFinish {
                job: job_id,
                task: action.task,
                copy: copy_id,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_core::policy::FnFactory;
    use grass_core::{Action, BoxedPolicy, GsFactory, GsPolicy, RasFactory, SpeculationPolicy};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::{Arc, Mutex};

    fn exact_job(id: u64, arrival: f64, tasks: usize, work: f64) -> JobSpec {
        JobSpec::single_stage(id, arrival, Bound::EXACT, vec![work; tasks])
    }

    fn small_config(seed: u64) -> SimConfig {
        SimConfig {
            cluster: ClusterConfig::small(2, 2),
            estimator: EstimatorConfig::paper_default(),
            seed,
        }
    }

    #[test]
    fn single_exact_job_completes_all_tasks() {
        let result = run_simulation(
            &small_config(1),
            vec![exact_job(1, 0.0, 10, 2.0)],
            &GsFactory,
        );
        assert_eq!(result.outcomes.len(), 1);
        let o = &result.outcomes[0];
        assert_eq!(o.completed_input_tasks, 10);
        assert!((o.accuracy() - 1.0).abs() < 1e-12);
        assert!(o.duration() > 0.0);
        assert!(result.total_copies >= 10);
        assert!(result.avg_utilization > 0.0);
    }

    #[test]
    fn deadline_job_is_cut_off_at_its_deadline() {
        // 100 tasks of 2s work on 4 slots with a 10s deadline cannot all finish.
        let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(10.0), vec![2.0; 100]);
        let result = run_simulation(&small_config(2), vec![job], &GsFactory);
        assert_eq!(result.outcomes.len(), 1);
        let o = &result.outcomes[0];
        assert!(o.completed_input_tasks < 100);
        assert!(o.completed_input_tasks > 0);
        assert!((o.duration() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn error_bound_job_stops_once_enough_tasks_complete() {
        let job = JobSpec::single_stage(1, 0.0, Bound::Error(0.5), vec![2.0; 20]);
        let result = run_simulation(&small_config(3), vec![job], &GsFactory);
        let o = &result.outcomes[0];
        assert!(o.completed_input_tasks >= 10);
        assert!(o.completed_input_tasks <= 20);
        assert!(o.met_error_bound());
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let jobs: Vec<JobSpec> = (0..5).map(|i| exact_job(i, i as f64, 8, 3.0)).collect();
        let a = run_simulation(&small_config(7), jobs.clone(), &RasFactory);
        let b = run_simulation(&small_config(7), jobs, &RasFactory);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.job, y.job);
            assert!((x.finish - y.finish).abs() < 1e-9);
            assert_eq!(x.completed_tasks, y.completed_tasks);
        }
    }

    #[test]
    fn multiple_jobs_share_the_cluster() {
        let jobs: Vec<JobSpec> = (0..4).map(|i| exact_job(i, 0.0, 10, 2.0)).collect();
        let result = run_simulation(&small_config(4), jobs, &GsFactory);
        assert_eq!(result.outcomes.len(), 4);
        for o in &result.outcomes {
            assert_eq!(o.completed_input_tasks, 10);
        }
    }

    #[test]
    fn dag_error_job_runs_downstream_stages() {
        let job =
            JobSpec::multi_stage(1, 0.0, Bound::Error(0.2), vec![vec![2.0; 10], vec![1.0; 3]]);
        let result = run_simulation(&small_config(5), vec![job], &GsFactory);
        let o = &result.outcomes[0];
        assert!(o.completed_input_tasks >= 8);
        // All downstream tasks must have completed.
        assert_eq!(o.completed_tasks - o.completed_input_tasks, 3);
    }

    #[test]
    fn dag_deadline_job_gets_a_shortened_input_deadline() {
        let job = JobSpec::multi_stage(
            1,
            0.0,
            Bound::Deadline(40.0),
            vec![vec![2.0; 30], vec![2.0; 5]],
        );
        let result = run_simulation(&small_config(6), vec![job], &GsFactory);
        let o = &result.outcomes[0];
        // Finishes before the nominal 40s deadline because intermediate time is
        // reserved.
        assert!(o.duration() < 40.0 - 1e-9);
        assert!(o.duration() > 0.0);
    }

    #[test]
    fn speculative_copies_occur_under_straggling() {
        // Large single-wave-ish job with heavy straggling: GS should speculate.
        let mut config = small_config(9);
        config.cluster = ClusterConfig::small(5, 4);
        let job = JobSpec::single_stage(1, 0.0, Bound::Error(0.0), vec![5.0; 40]);
        let result = run_simulation(&config, vec![job], &GsFactory);
        let o = &result.outcomes[0];
        assert!(
            o.speculative_copies > 0,
            "expected at least one speculative copy under heavy-tailed straggling"
        );
        assert_eq!(o.completed_input_tasks, 40);
    }

    #[test]
    fn traced_run_matches_untraced_run_and_captures_events() {
        use crate::trace::VecSink;
        let jobs: Vec<JobSpec> = (0..4).map(|i| exact_job(i, i as f64, 12, 3.0)).collect();
        let config = small_config(11);
        let plain = run_simulation(&config, jobs.clone(), &GsFactory);
        let mut sink = VecSink::new();
        let traced = run_simulation_traced(&config, jobs, &GsFactory, &mut sink);

        // The sink is passive: results must be bit-identical.
        assert_eq!(plain.outcomes, traced.outcomes);
        assert_eq!(plain.total_copies, traced.total_copies);
        assert!((plain.makespan - traced.makespan).abs() < 1e-12);

        // The stream covers every lifecycle stage, in non-decreasing time order.
        let events = sink.into_events();
        let count = |label: &str| events.iter().filter(|e| e.kind_label() == label).count();
        assert_eq!(count("arrive"), 4);
        assert_eq!(count("jobdone"), 4);
        assert_eq!(count("launch"), traced.total_copies);
        assert_eq!(count("decide"), traced.total_copies);
        assert!(count("finish") >= 4 * 12);
        let mut last = 0.0;
        for e in &events {
            assert!(e.time() >= last - 1e-12, "events out of order");
            last = e.time();
        }
    }

    /// GS that never holds a decline: the inner policy sees a copy of each view,
    /// so its hint never reaches the simulator.
    struct UnheldGs;

    impl SpeculationPolicy for UnheldGs {
        fn name(&self) -> &str {
            "GS"
        }

        fn choose(&mut self, view: &JobView) -> Option<Action> {
            GsPolicy::default().choose(&view.clone())
        }
    }

    #[test]
    fn held_declines_skip_consultations_without_changing_outcomes() {
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| JobSpec::single_stage(i, i as f64, Bound::Error(0.3), vec![3.0; 12]))
            .collect();
        // More slots than any job needs, so jobs decline once their needed tasks run.
        let mut config = small_config(12);
        config.cluster = ClusterConfig::small(5, 4);
        let held = run_simulation(&config, jobs.clone(), &GsFactory);
        let unheld = FnFactory::new("GS", |_: &JobSpec| Box::new(UnheldGs) as BoxedPolicy);
        let unheld = run_simulation(&config, jobs, &unheld);
        assert_eq!(held.outcomes, unheld.outcomes);
        assert_eq!(held.total_copies, unheld.total_copies);
        assert!(
            held.stats.policy_consultations < unheld.stats.policy_consultations,
            "held {:?} vs unheld {:?}",
            held.stats,
            unheld.stats
        );
    }

    /// GS whose drops are counted, so a test can see when the simulator frees a
    /// job's policy.
    struct CountedGs {
        inner: GsPolicy,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for CountedGs {
        fn drop(&mut self) {
            self.drops.fetch_add(1, AtomicOrdering::SeqCst);
        }
    }

    impl SpeculationPolicy for CountedGs {
        fn name(&self) -> &str {
            "GS"
        }

        fn choose(&mut self, view: &JobView) -> Option<Action> {
            self.inner.choose(view)
        }
    }

    #[test]
    fn a_finished_job_frees_its_runtime_and_policy() {
        let drops = Arc::new(AtomicUsize::new(0));
        // The drop count each `create` saw.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let factory = FnFactory::new("GS", {
            let (drops, seen) = (Arc::clone(&drops), Arc::clone(&seen));
            move |_: &JobSpec| {
                seen.lock()
                    .unwrap()
                    .push(drops.load(AtomicOrdering::SeqCst));
                Box::new(CountedGs {
                    inner: GsPolicy::default(),
                    drops: Arc::clone(&drops),
                }) as BoxedPolicy
            }
        });
        // Job 2 arrives long after job 1 has finished.
        let jobs = vec![exact_job(1, 0.0, 4, 1.0), exact_job(2, 1000.0, 4, 1.0)];
        let result = run_simulation(&small_config(13), jobs, &factory);
        assert_eq!(result.outcomes.len(), 2);
        assert!(result.outcomes[0].finish < 1000.0);
        assert_eq!(*seen.lock().unwrap(), vec![0, 1]);
        assert_eq!(drops.load(AtomicOrdering::SeqCst), 2);
    }

    #[test]
    fn outcome_policy_names_match_factory() {
        let result = run_simulation(
            &small_config(10),
            vec![exact_job(1, 0.0, 5, 1.0)],
            &RasFactory,
        );
        assert_eq!(result.outcomes[0].policy, "RAS");
        assert_eq!(result.outcomes_for("RAS").count(), 1);
        assert_eq!(result.outcomes_for("GS").count(), 0);
    }
}
