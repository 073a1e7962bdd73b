//! The frozen pre-event-core simulator, kept as the differential-testing oracle.
//!
//! This is a verbatim copy of the simulator as it stood before the indexed
//! event-core refactor: `dispatch` rebuilds the fair-share ordering from a full
//! scan of every live [`JobRuntime`] per launched copy, and every event settles
//! by walking all active jobs to update their time-weighted statistics. That
//! O(live jobs)-per-event behaviour is exactly what the event core replaces —
//! and exactly why this copy exists: `tests/sim_differential.rs` replays
//! arbitrary generated workloads through both engines and requires bit-identical
//! outcomes and byte-identical captured traces.
//!
//! **Do not optimise or otherwise modify this module.** Its value is that it
//! never changes. It shares `JobRuntime`, `EventQueue` and the trace hooks with
//! the live engine, so any behavioural drift in those shared pieces is caught by
//! the differential harness rather than hidden by a second copy. It keeps
//! finished jobs and their runtimes, and tracks which have finished itself.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::SeedableRng;

use grass_core::{
    ActionKind, Bound, JobId, JobOutcome, JobSpec, JobView, PolicyFactory, Time, TnewEstimate,
};
use grass_sim::{
    Event, EventQueue, JobRuntime, Machine, NullSink, SimConfig, SimResult, SimTraceEvent, SlotId,
    TimeWeighted, TraceSink,
};

/// Run a full simulation through the frozen reference engine.
pub fn run_reference(
    config: &SimConfig,
    jobs: Vec<JobSpec>,
    factory: &dyn PolicyFactory,
) -> SimResult {
    let mut sink = NullSink;
    ReferenceSimulator::new(*config, jobs, factory, &mut sink).run()
}

/// Run the frozen reference engine while streaming every scheduling-level event
/// into `sink`, exactly as [`grass_sim::run_simulation_traced`] does for the live
/// engine.
pub fn run_reference_traced(
    config: &SimConfig,
    jobs: Vec<JobSpec>,
    factory: &dyn PolicyFactory,
    sink: &mut dyn TraceSink,
) -> SimResult {
    ReferenceSimulator::new(*config, jobs, factory, sink).run()
}

struct ReferenceSimulator<'a> {
    config: SimConfig,
    factory: &'a dyn PolicyFactory,
    sink: &'a mut dyn TraceSink,
    view_scratch: grass_core::TaskRows,
    machines: Vec<Machine>,
    free_slots: Vec<SlotId>,
    total_slots: usize,
    pending: HashMap<JobId, JobSpec>,
    running: HashMap<JobId, JobRuntime>,
    /// Jobs whose deadline fired or whose error bound was met.
    finished: HashSet<JobId>,
    active_order: Vec<JobId>,
    events: EventQueue,
    rng: StdRng,
    next_copy_id: u64,
    now: Time,
    util_stat: TimeWeighted,
    outcomes: Vec<JobOutcome>,
    total_copies: usize,
    mean_slowdown: f64,
}

impl<'a> ReferenceSimulator<'a> {
    fn new(
        config: SimConfig,
        jobs: Vec<JobSpec>,
        factory: &'a dyn PolicyFactory,
        sink: &'a mut dyn TraceSink,
    ) -> Self {
        let machines = config.cluster.build_machines(config.seed);
        let free_slots: Vec<SlotId> = machines.iter().flat_map(|m| m.slot_ids()).collect();
        let total_slots = free_slots.len();
        let mut events = EventQueue::new();
        let mut pending = HashMap::with_capacity(jobs.len());
        for job in jobs {
            debug_assert!(job.validate().is_ok(), "invalid job spec {:?}", job.id);
            events.push(job.arrival, Event::JobArrival(job.id));
            pending.insert(job.id, job);
        }
        let mean_slowdown = config.cluster.mean_slowdown();
        ReferenceSimulator {
            config,
            factory,
            sink,
            view_scratch: grass_core::TaskRows::default(),
            machines,
            free_slots,
            total_slots,
            pending,
            running: HashMap::new(),
            finished: HashSet::new(),
            active_order: Vec::new(),
            events,
            rng: StdRng::seed_from_u64(0),
            next_copy_id: 0,
            now: 0.0,
            util_stat: TimeWeighted::new(0.0, 0.0),
            outcomes: Vec::new(),
            total_copies: 0,
            mean_slowdown,
        }
    }

    fn run(mut self) -> SimResult {
        self.rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(0x5EED));
        while let Some((time, event)) = self.events.pop() {
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
            .filter(|id| self.is_live(id))
            .collect();
        for id in leftover {
            self.finalize_job(id);
        }
        SimResult {
            outcomes: self.outcomes,
            makespan: self.now,
            total_copies: self.total_copies,
            avg_utilization: self.util_stat.average(self.now),
            stats: Default::default(),
        }
    }

    /// Whether `id` has arrived and not finished.
    fn is_live(&self, id: &JobId) -> bool {
        self.running.contains_key(id) && !self.finished.contains(id)
    }

    fn utilization(&self) -> f64 {
        if self.total_slots == 0 {
            return 0.0;
        }
        (self.total_slots - self.free_slots.len()) as f64 / self.total_slots as f64
    }

    fn active_job_count(&self) -> usize {
        self.active_order
            .iter()
            .filter(|id| self.is_live(id))
            .count()
    }

    fn fair_share(&self) -> usize {
        let active = self.active_job_count().max(1);
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

        // Let the policy observe the job's initial state.
        {
            let mut views = std::mem::take(&mut self.view_scratch);
            runtime.build_task_views_into(self.mean_slowdown, &mut views);
            let view = Self::job_view(
                &runtime,
                &views,
                self.now,
                self.fair_share(),
                self.utilization(),
                runtime.tnew_estimate(&self.config.estimator, self.mean_slowdown),
            );
            runtime.policy.on_job_start(&view);
            self.view_scratch = views;
        }

        self.running.insert(id, runtime);
        self.active_order.push(id);
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
        if self.finished.contains(&job_id) {
            return;
        }
        let effect = job.complete_copy(task, copy, self.now);
        if effect.stale {
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
        self.util_stat.update(self.now, util);
        job.update_stats(self.now, util);

        if effect.task_completed {
            let mut views = std::mem::take(&mut self.view_scratch);
            job.build_task_views_into(self.mean_slowdown, &mut views);
            let estimate = job.tnew_estimate(&self.config.estimator, self.mean_slowdown);
            let view = Self::job_view(job, &views, self.now, fair, util, estimate);
            job.policy.on_task_complete(&view, task);
            self.view_scratch = views;
        }

        // Error-bound jobs finish the moment their bound is satisfied.
        let satisfied = job.spec.bound.is_error() && job.bound_satisfied();
        if satisfied {
            self.finalize_job(job_id);
        }
        self.dispatch();
    }

    fn handle_deadline(&mut self, id: JobId) {
        if self.is_live(&id) {
            self.finalize_job(id);
        }
        self.dispatch();
    }

    fn finalize_job(&mut self, id: JobId) {
        let util = self.utilization();
        let Some(job) = self.running.get_mut(&id) else {
            return;
        };
        if self.finished.contains(&id) {
            return;
        }
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
        self.finished.insert(id);
        let outcome = job.outcome(self.now);
        self.sink.record(&SimTraceEvent::JobFinish {
            time: self.now,
            job: id,
            completed_input: outcome.completed_input_tasks,
            completed_total: outcome.completed_tasks,
        });
        job.policy.on_job_complete(&outcome);
        self.outcomes.push(outcome);
        self.util_stat.update(self.now, self.utilization());
    }

    fn job_view<'v>(
        job: &JobRuntime,
        views: &'v grass_core::TaskRows,
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
            deadline_index: None,
            wave_width: job
                .allocated_slots
                .max(fair_share.min(job.spec.total_tasks())),
            cluster_utilization: utilization,
            estimation_accuracy: job.accuracy.accuracy(),
            decline_hold: std::cell::Cell::new(false),
        }
    }

    /// Hand out free slots: repeatedly offer the next free slot to the active job with
    /// the fewest allocated slots (max–min fair sharing without preemption) until no
    /// job wants a slot or no slots remain.
    fn dispatch(&mut self) {
        loop {
            if self.free_slots.is_empty() {
                break;
            }
            let util = self.utilization();
            let fair = self.fair_share();
            // Fair ordering: fewest allocated slots first, job id as tie-breaker.
            let mut order: Vec<(usize, JobId)> = self
                .active_order
                .iter()
                .filter_map(|id| {
                    let job = self.running.get(id)?;
                    if self.finished.contains(id) || !job.has_unfinished_work() {
                        return None;
                    }
                    Some((job.allocated_slots, *id))
                })
                .collect();
            order.sort_by_key(|(alloc, id)| (*alloc, id.0));

            let mut launched = false;
            for (_, id) in order {
                if self.try_launch_for(id, fair, util) {
                    launched = true;
                    break;
                }
            }
            if !launched {
                break;
            }
        }
        // Refresh per-job statistics after the allocation settled.
        let util = self.utilization();
        self.util_stat.update(self.now, util);
        for id in &self.active_order {
            if let Some(job) = self.running.get_mut(id) {
                if !self.finished.contains(id) {
                    job.update_stats(self.now, util);
                }
            }
        }
    }

    /// Offer one free slot to `job_id`. Returns true if a copy was launched.
    fn try_launch_for(&mut self, job_id: JobId, fair_share: usize, utilization: f64) -> bool {
        let mut views = std::mem::take(&mut self.view_scratch);
        let launched = self.try_launch_with_views(job_id, fair_share, utilization, &mut views);
        self.view_scratch = views;
        launched
    }

    fn try_launch_with_views(
        &mut self,
        job_id: JobId,
        fair_share: usize,
        utilization: f64,
        views: &mut grass_core::TaskRows,
    ) -> bool {
        let mean_slowdown = self.mean_slowdown;
        let estimator = self.config.estimator;
        let Some(job) = self.running.get_mut(&job_id) else {
            return false;
        };
        job.build_task_views_into(mean_slowdown, views);
        if views.is_empty() {
            return false;
        }
        let estimate = job.tnew_estimate(&estimator, mean_slowdown);
        let view = Self::job_view(job, views, self.now, fair_share, utilization, estimate);
        let Some(action) = job.policy.choose(&view) else {
            return false;
        };

        // Validate the action against ground truth; a policy bug must not wedge or
        // corrupt the simulation.
        let idx = action.task.index();
        if idx >= job.tasks.len() || job.tasks[idx].finished {
            return false;
        }
        let task_running = !job.tasks[idx].copies.is_empty();
        if action.kind == ActionKind::Launch && task_running {
            return false;
        }
        if !job.stage_eligible(job.tasks[idx].spec.stage.value() as usize) {
            return false;
        }

        let Some(slot) = self.free_slots.pop() else {
            return false;
        };
        self.sink.record(&SimTraceEvent::Decision {
            time: self.now,
            job: job_id,
            task: action.task,
            kind: action.kind,
        });
        let machine_slowdown = self.machines[slot.machine].slowdown;
        let straggle = self.config.cluster.straggler.sample(&mut self.rng);
        let duration = (job.tasks[idx].spec.work * machine_slowdown * straggle).max(1e-6);
        let copy_id = self.next_copy_id;
        self.next_copy_id += 1;
        let speculative = !job.tasks[idx].copies.is_empty();
        job.launch_copy(
            action.task,
            copy_id,
            slot,
            self.now,
            duration,
            &estimator,
            &mut self.rng,
        );
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
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_core::GsFactory;
    use grass_sim::{run_simulation, ClusterConfig};

    /// The reference engine is a frozen copy: on a quick workload it must agree
    /// with the live engine exactly (the full-breadth check lives in
    /// `tests/sim_differential.rs`).
    #[test]
    fn reference_matches_live_engine_on_a_small_run() {
        let config = SimConfig {
            cluster: ClusterConfig::small(3, 2),
            ..SimConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::single_stage(i, i as f64, Bound::EXACT, vec![2.0; 6]))
            .collect();
        let live = run_simulation(&config, jobs.clone(), &GsFactory);
        let frozen = run_reference(&config, jobs, &GsFactory);
        assert_eq!(live.outcomes, frozen.outcomes);
        assert_eq!(live.total_copies, frozen.total_copies);
        assert!((live.makespan - frozen.makespan).abs() < 1e-15);
        assert_eq!(
            live.avg_utilization.to_bits(),
            frozen.avg_utilization.to_bits()
        );
    }
}
