//! Per-job runtime state: running copies, completed counters, estimation state and the
//! construction of the [`TaskView`]s / [`JobOutcome`]s handed to policies.

use std::cell::OnceCell;

use rand::Rng;

use grass_core::{
    degrade_estimate, AccuracyTracker, Bound, BoxedPolicy, DeadlineIndex, EstimatorConfig,
    JobOutcome, JobSpec, TaskId, TaskRows, TaskSpec, TaskView, Time, TnewEstimate,
};

use crate::event::CopyId;
use crate::machine::SlotId;
use crate::stats::TimeWeighted;

/// One running copy of a task.
#[derive(Debug, Clone)]
pub struct CopyRuntime {
    /// Unique copy identifier (for stale-event detection).
    pub id: CopyId,
    /// Slot the copy occupies.
    pub slot: SlotId,
    /// Launch time.
    pub start: Time,
    /// Total runtime the copy needs on its slot.
    pub duration: Time,
    /// Multiplicative estimation bias applied to this copy's remaining-time estimates
    /// (drawn once at launch so estimates are consistent over the copy's lifetime).
    pub rem_bias: f64,
}

impl CopyRuntime {
    /// Elapsed runtime at `now`.
    pub fn elapsed(&self, now: Time) -> Time {
        (now - self.start).max(0.0)
    }
}

/// Runtime state of one task.
#[derive(Debug, Clone)]
pub struct TaskRuntime {
    /// The task's static description.
    pub spec: TaskSpec,
    /// Currently running copies.
    pub copies: Vec<CopyRuntime>,
    /// Whether the task has completed.
    pub finished: bool,
    /// Multiplicative estimation bias applied to this task's `tnew` estimates.
    pub tnew_bias: f64,
}

impl TaskRuntime {
    fn new(spec: TaskSpec, tnew_bias: f64) -> Self {
        TaskRuntime {
            spec,
            copies: Vec::new(),
            finished: false,
            tnew_bias,
        }
    }

    /// The running copy that finishes first by ground truth: the earliest `start +
    /// duration`, and the first launched among equal ends. It depends on nothing but
    /// the copies, so a task's view row changes only when a copy launches.
    ///
    /// Ranking by remaining time at some `now`, `(start + duration − now).max(0)`,
    /// picks the same copy, with two exceptions: two live copies whose ends differ by
    /// an ulp or so yet whose remaining times round to one value (a tie that then goes
    /// to the first launched), and several copies that have already ended and so all
    /// clamp to zero. The simulator never shows the second, since a copy's finish
    /// event fires at its end; there the two rankings still agree on `trem`,
    /// `true_remaining` and `elapsed`.
    pub fn best_copy(&self) -> Option<&CopyRuntime> {
        self.copies
            .iter()
            .min_by(|a, b| (a.start + a.duration).total_cmp(&(b.start + b.duration)))
    }

    /// This task's view row: its static fields, and copy fields taken from its
    /// running copies ([`TaskRuntime::set_copy_fields`]).
    fn view_row(&self, id: TaskId, eligible: bool, cluster_mean_slowdown: f64) -> TaskView {
        let mut row = TaskView {
            id,
            stage: self.spec.stage,
            eligible,
            running_copies: 0,
            copy_start: 0.0,
            copy_duration: 0.0,
            rem_bias: 1.0,
            oldest_start: 0.0,
            tnew_bias: self.tnew_bias,
            true_new_hint: self.spec.work * cluster_mean_slowdown,
            work: self.spec.work,
        };
        self.set_copy_fields(&mut row);
        row
    }

    /// Set `row`'s copy fields from this task's running copies: their count, the
    /// [best copy](TaskRuntime::best_copy)'s start, duration and estimate bias, and
    /// the oldest copy's start. A task with no copy keeps the zeros and unit bias
    /// [`TaskRuntime::view_row`] starts from; a row never loses its copies, since
    /// the task's completion removes the row.
    fn set_copy_fields(&self, row: &mut TaskView) {
        row.running_copies = self.copies.len() as u32;
        if let Some(best) = self.best_copy() {
            (row.copy_start, row.copy_duration, row.rem_bias) =
                (best.start, best.duration, best.rem_bias);
            row.oldest_start = self
                .copies
                .iter()
                .map(|c| c.start)
                .fold(f64::INFINITY, f64::min);
        }
    }
}

/// What happened when a copy-finish event was applied to a job.
#[derive(Debug, Default)]
pub struct CompletionEffect {
    /// Slots freed (the finishing copy's slot plus every killed sibling's slot).
    pub freed_slots: Vec<SlotId>,
    /// Identity (copy id, slot) of every killed sibling, for trace capture.
    pub killed_copies: Vec<(CopyId, SlotId)>,
    /// Whether the event referred to a copy that no longer exists (stale).
    pub stale: bool,
    /// Whether the task transitioned to finished by this event.
    pub task_completed: bool,
}

impl CompletionEffect {
    /// Clear all fields, keeping the vector capacities. The event core reuses
    /// one effect as a scratch buffer across all copy-finish events instead of
    /// allocating two `Vec`s per event (a measured slot-free-path hot spot).
    pub fn reset(&mut self) {
        self.freed_slots.clear();
        self.killed_copies.clear();
        self.stale = false;
        self.task_completed = false;
    }
}

/// Runtime state of one job.
pub struct JobRuntime {
    /// The job's static specification.
    pub spec: JobSpec,
    /// The per-job speculation policy instance.
    pub policy: BoxedPolicy,
    /// Per-task runtime state, indexed by [`TaskId`].
    pub tasks: Vec<TaskRuntime>,
    /// Completed-task counters per DAG stage.
    pub completed_per_stage: Vec<usize>,
    /// Slots currently allocated to (occupied by) this job.
    pub allocated_slots: usize,
    /// Speculative copies launched so far.
    pub speculative_copies: usize,
    /// Copies killed because a sibling finished first.
    pub killed_copies: usize,
    /// Slot-seconds consumed so far (all copies, including killed ones).
    pub slot_seconds: f64,
    /// Effective deadline for the input stage (deadline-bound jobs only), relative to
    /// arrival.
    pub input_deadline: Option<Time>,
    /// Running sum of completed copy durations normalised by task work, used to
    /// estimate `tnew`. Folded in completion order from `-0.0`, the identity
    /// `Sum for f64` starts from, so it equals `iter().sum()` over the
    /// durations bit for bit.
    duration_per_work_sum: f64,
    /// Number of durations folded into `duration_per_work_sum`.
    duration_per_work_count: usize,
    /// Measured estimation accuracy.
    pub accuracy: AccuracyTracker,
    /// Time-weighted allocated-slot count.
    pub wave_width_stat: TimeWeighted,
    /// Time-weighted cluster utilisation observed by this job.
    pub util_stat: TimeWeighted,
    /// Time-weighted measured estimation accuracy.
    pub acc_stat: TimeWeighted,
    /// Number of tasks not yet finished (kept in lockstep with
    /// `tasks[i].finished` so [`has_unfinished_work`](Self::has_unfinished_work)
    /// is O(1) instead of an O(tasks) scan).
    pub unfinished: usize,
    /// Event-core bookkeeping: index of the next global utilisation-timeline
    /// entry this job has not yet folded into its time-weighted statistics (see
    /// the simulator's lazy stats catch-up). Unused by the frozen reference
    /// engine.
    pub stats_cursor: usize,
    /// Resident [`TaskView`] table: one row per unfinished task, with the map from
    /// task id to row. Built once, at the job's arrival
    /// ([`init_task_views`](Self::init_task_views)); from then on only
    /// [`launch_copy`](Self::launch_copy) and
    /// [`complete_copy`](Self::complete_copy) touch it, since no row depends on
    /// `now`. Empty until built and again once the job is finalised.
    pub(crate) task_views: TaskRows,
    /// The [`DeadlineIndex`] of `task_views`, kept beside them once a decision has
    /// built it: GS, RAS and GRASS build it at a deadline-bound job's first
    /// decision; LATE, Mantri and no speculation never read one, and error-bound
    /// jobs' decisions never do.
    pub(crate) deadline_index: OnceCell<DeadlineIndex>,
}

impl JobRuntime {
    /// Create the runtime state for a job at its arrival.
    pub fn new<R: Rng + ?Sized>(
        spec: JobSpec,
        policy: BoxedPolicy,
        estimator: &EstimatorConfig,
        now: Time,
        rng: &mut R,
    ) -> Self {
        let tasks: Vec<TaskRuntime> = spec
            .tasks
            .iter()
            .map(|t| {
                let bias = if estimator.oracle {
                    1.0
                } else {
                    degrade_estimate(1.0, estimator.tnew_accuracy, rng)
                };
                TaskRuntime::new(*t, bias)
            })
            .collect();
        let stages = spec.stages.len();
        let prior_accuracy = estimator.nominal_accuracy();
        let unfinished = tasks.len();
        JobRuntime {
            spec,
            policy,
            tasks,
            completed_per_stage: vec![0; stages],
            allocated_slots: 0,
            speculative_copies: 0,
            killed_copies: 0,
            slot_seconds: 0.0,
            input_deadline: None,
            duration_per_work_sum: -0.0,
            duration_per_work_count: 0,
            accuracy: AccuracyTracker::new(prior_accuracy),
            wave_width_stat: TimeWeighted::new(now, 0.0),
            util_stat: TimeWeighted::new(now, 0.0),
            acc_stat: TimeWeighted::new(now, prior_accuracy),
            unfinished,
            stats_cursor: 0,
            task_views: TaskRows::default(),
            deadline_index: OnceCell::new(),
        }
    }

    /// Number of input-stage tasks required for this job's bound.
    fn stage_needed(&self, stage: usize) -> usize {
        // grass: allow(panicky-lib, "stage indices come from iterating this spec's own stages")
        let count = self.spec.stages[stage].task_count;
        if stage == 0 {
            match self.spec.bound {
                Bound::Deadline(_) => count,
                Bound::Error(e) => Bound::Error(e).tasks_needed(count),
            }
        } else {
            count
        }
    }

    /// Whether the tasks of `stage` may be scheduled. Stage 0 is always eligible;
    /// stage `s > 0` unlocks when stage `s − 1` has met its completion requirement.
    pub fn stage_eligible(&self, stage: usize) -> bool {
        if stage == 0 {
            return true;
        }
        // grass: allow(panicky-lib, "completed_per_stage is sized from spec.stages at construction")
        self.completed_per_stage[stage - 1] >= self.stage_needed(stage - 1)
    }

    /// Whether every stage has met its completion requirement (error-bound jobs
    /// finish when this becomes true).
    pub fn bound_satisfied(&self) -> bool {
        // grass: allow(panicky-lib, "completed_per_stage is sized from spec.stages at construction")
        (0..self.spec.stages.len()).all(|s| self.completed_per_stage[s] >= self.stage_needed(s))
    }

    /// Completed input-stage tasks.
    pub fn completed_input(&self) -> usize {
        self.completed_per_stage.first().copied().unwrap_or(0)
    }

    /// Completed tasks across all stages.
    pub fn completed_total(&self) -> usize {
        self.completed_per_stage.iter().sum()
    }

    /// Whether any unfinished task remains (used to decide whether the job still has
    /// demand for slots). O(1) via the `unfinished` counter.
    pub fn has_unfinished_work(&self) -> bool {
        debug_assert_eq!(
            self.unfinished,
            self.tasks.iter().filter(|t| !t.finished).count()
        );
        self.unfinished > 0
    }

    /// Current estimate of a new copy's duration per unit work: the mean of completed
    /// copy durations normalised by work, falling back to the cluster's mean slowdown
    /// before any completions.
    pub fn duration_per_work_estimate(&self, cluster_mean_slowdown: f64) -> f64 {
        if self.duration_per_work_count == 0 {
            cluster_mean_slowdown
        } else {
            self.duration_per_work_sum / self.duration_per_work_count as f64
        }
    }

    /// What the job's views derive `tnew` from ([`grass_core::JobView::tnew`]):
    /// the per-work estimate, or ground truth under oracle estimates.
    pub fn tnew_estimate(
        &self,
        estimator: &EstimatorConfig,
        cluster_mean_slowdown: f64,
    ) -> TnewEstimate {
        if estimator.oracle {
            TnewEstimate::Oracle
        } else {
            TnewEstimate::PerWork(self.duration_per_work_estimate(cluster_mean_slowdown))
        }
    }

    /// The resident task views. They hold, bit for bit, the rows
    /// [`build_task_views`](Self::build_task_views) returns, in a deterministic
    /// order that is not sorted: a launch re-derives its task's row in place
    /// ([`launch_copy`](Self::launch_copy)), and a task completion swap-removes its
    /// task's row and, when it meets its stage's requirement, marks the next stage's
    /// rows eligible ([`complete_copy`](Self::complete_copy)). Readers find a row by
    /// task id through the table's map and break ties by task id. A row holds
    /// neither job-wide state nor anything that depends on `now`: views derive
    /// `tnew` from the job's per-work estimate and every time-dependent field at
    /// their own `now` ([`grass_core::JobView::trem`] and its siblings).
    pub fn task_views(&self) -> &TaskRows {
        &self.task_views
    }

    /// The cell of the resident [`DeadlineIndex`] of
    /// [`task_views`](Self::task_views), which the simulator's views carry. It
    /// stays empty until a decision builds the index into it, keyed for that
    /// decision's estimate kind; from then on a first launch moves its task from the
    /// fresh order to the running list, a completion drops its task from the running
    /// list, and a stage's unlock re-sorts the fresh order with the stage's rows.
    pub fn deadline_index(&self) -> &OnceCell<DeadlineIndex> {
        &self.deadline_index
    }

    /// Build the resident task views. The simulator calls this once, at the job's
    /// arrival; [`task_views`](Self::task_views) says what keeps them current.
    pub fn init_task_views(&mut self, cluster_mean_slowdown: f64) {
        let mut rows = Vec::with_capacity(self.unfinished);
        rows.extend(self.rows(cluster_mean_slowdown));
        self.task_views = TaskRows::from(rows);
    }

    /// One row per unfinished task, in ascending task id.
    fn rows(&self, cluster_mean_slowdown: f64) -> impl Iterator<Item = TaskView> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, task)| !task.finished)
            .map(move |(idx, task)| {
                let eligible = self.stage_eligible(task.spec.stage.value() as usize);
                task.view_row(TaskId(idx as u32), eligible, cluster_mean_slowdown)
            })
    }

    /// Build the [`TaskView`]s for every unfinished task, in ascending task id.
    pub fn build_task_views(&self, cluster_mean_slowdown: f64) -> TaskRows {
        self.rows(cluster_mean_slowdown).collect()
    }

    /// Build the [`TaskView`]s for every unfinished task, in ascending task id, into
    /// a caller-provided table, clearing it first. The frozen reference engine
    /// (`grass-oracles`) builds every view it hands out through here. No row depends
    /// on `now` or on the estimator: under oracle estimates
    /// [`launch_copy`](Self::launch_copy) already gives every copy a unit `rem_bias`.
    pub fn build_task_views_into(&self, cluster_mean_slowdown: f64, views: &mut TaskRows) {
        views.clear();
        views.extend(self.rows(cluster_mean_slowdown));
    }

    /// Record the launch of a copy of `task` on `slot`.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_copy<R: Rng + ?Sized>(
        &mut self,
        task: TaskId,
        copy_id: CopyId,
        slot: SlotId,
        now: Time,
        duration: Time,
        estimator: &EstimatorConfig,
        rng: &mut R,
    ) {
        // grass: allow(panicky-lib, "TaskIds are minted by this runtime's constructor; index is always valid")
        let t = &mut self.tasks[task.index()];
        debug_assert!(!t.finished, "launched a copy of a finished task");
        if !t.copies.is_empty() {
            self.speculative_copies += 1;
        }
        let rem_bias = if estimator.oracle {
            1.0
        } else {
            degrade_estimate(1.0, estimator.trem_accuracy, rng)
        };
        t.copies.push(CopyRuntime {
            id: copy_id,
            slot,
            start: now,
            duration,
            rem_bias,
        });
        self.allocated_slots += 1;
        // Keep the resident row and a built index current (an unbuilt table is
        // empty).
        if let Some(row) = self.task_views.get_mut(task) {
            t.set_copy_fields(row);
            if let Some(index) = self.deadline_index.get_mut() {
                index.launched(&self.task_views, task);
            }
        }
    }

    /// Apply a copy-finish event. Marks the task finished, kills sibling copies, and
    /// reports which slots were freed.
    pub fn complete_copy(&mut self, task: TaskId, copy_id: CopyId, now: Time) -> CompletionEffect {
        let mut effect = CompletionEffect::default();
        self.complete_copy_into(task, copy_id, now, &mut effect);
        effect
    }

    /// [`complete_copy`](Self::complete_copy) into a caller-owned effect buffer,
    /// resetting it first. The event core threads one scratch effect through
    /// every copy-finish event, retiring the two per-event `Vec` allocations.
    pub fn complete_copy_into(
        &mut self,
        task: TaskId,
        copy_id: CopyId,
        now: Time,
        effect: &mut CompletionEffect,
    ) {
        effect.reset();
        // grass: allow(panicky-lib, "TaskIds are minted by this runtime's constructor; index is always valid")
        let t = &mut self.tasks[task.index()];
        let Some(pos) = t.copies.iter().position(|c| c.id == copy_id) else {
            effect.stale = true;
            return;
        };
        if t.finished {
            effect.stale = true;
            return;
        }
        let finishing = t.copies.swap_remove(pos);
        self.slot_seconds += finishing.elapsed(now);
        effect.freed_slots.push(finishing.slot);
        // Kill every sibling copy: the race is over.
        for sibling in t.copies.drain(..) {
            self.slot_seconds += sibling.elapsed(now);
            effect.freed_slots.push(sibling.slot);
            effect.killed_copies.push((sibling.id, sibling.slot));
        }
        self.killed_copies += effect.killed_copies.len();
        self.allocated_slots = self
            .allocated_slots
            .saturating_sub(effect.freed_slots.len());
        t.finished = true;
        effect.task_completed = true;
        self.unfinished -= 1;

        let stage = t.spec.stage.value() as usize;
        let work = t.spec.work;
        let tnew_bias = t.tnew_bias;
        let rem_bias = finishing.rem_bias;
        let actual = finishing.duration;
        // grass: allow(panicky-lib, "stage comes from this task's spec; completed_per_stage is sized from spec.stages")
        self.completed_per_stage[stage] += 1;
        if work > 0.0 && actual > 0.0 {
            self.duration_per_work_sum += actual / work;
            self.duration_per_work_count += 1;
            // What the estimator believed versus what happened, folded into the
            // measured-accuracy signal GRASS consumes.
            self.accuracy.record(actual * rem_bias, actual);
            self.accuracy.record(work * tnew_bias, actual);
        }

        // Keep the resident table and a built index current (an unbuilt table is
        // empty): the task's row goes, and the completion that meets its stage's
        // requirement unlocks the next stage.
        if self.task_views.remove(task).is_some() {
            if let Some(index) = self.deadline_index.get_mut() {
                index.removed(task);
            }
        }
        // grass: allow(panicky-lib, "stage comes from this task's spec; completed_per_stage is sized from spec.stages")
        if self.completed_per_stage[stage] == self.stage_needed(stage) {
            for row in self.task_views.iter_mut() {
                if row.stage.value() as usize == stage + 1 {
                    row.eligible = true;
                }
            }
            if let Some(index) = self.deadline_index.get_mut() {
                index.unlocked(&self.task_views);
            }
        }
    }

    /// Kill every running copy of every task (used when a job hits its deadline or is
    /// finalised early). Returns the identity of every killed copy
    /// (task, copy id, freed slot). The job is done, so its resident task views
    /// and their index are freed.
    pub fn kill_all_copies(&mut self, now: Time) -> Vec<(TaskId, CopyId, SlotId)> {
        self.task_views = TaskRows::default();
        self.deadline_index = OnceCell::new();
        let mut freed = Vec::new();
        for (idx, t) in self.tasks.iter_mut().enumerate() {
            for c in t.copies.drain(..) {
                self.slot_seconds += c.elapsed(now);
                freed.push((TaskId(idx as u32), c.id, c.slot));
                self.killed_copies += 1;
            }
        }
        self.allocated_slots = self.allocated_slots.saturating_sub(freed.len());
        freed
    }

    /// Update the job's time-weighted statistics at `now`.
    pub fn update_stats(&mut self, now: Time, cluster_utilization: f64) {
        self.wave_width_stat
            .update(now, self.allocated_slots as f64);
        self.util_stat.update(now, cluster_utilization);
        self.acc_stat.update(now, self.accuracy.accuracy());
    }

    /// Build the job's final outcome record at `finish`.
    pub fn outcome(&self, finish: Time) -> JobOutcome {
        JobOutcome {
            job: self.spec.id,
            policy: self.policy.name().to_string(),
            bound: self.spec.bound,
            input_tasks: self.spec.input_tasks(),
            total_tasks: self.spec.total_tasks(),
            dag_length: self.spec.dag_length(),
            arrival: self.spec.arrival,
            finish,
            completed_input_tasks: self.completed_input(),
            completed_tasks: self.completed_total(),
            speculative_copies: self.speculative_copies,
            killed_copies: self.killed_copies,
            slot_seconds: self.slot_seconds,
            avg_wave_width: self.wave_width_stat.average(finish),
            avg_cluster_utilization: self.util_stat.average(finish),
            avg_estimation_accuracy: self.acc_stat.average(finish),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_core::{Action, JobView, SpeculationPolicy, StageId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;

    struct Noop;
    impl SpeculationPolicy for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn choose(&mut self, _view: &JobView) -> Option<Action> {
            None
        }
    }

    fn job_runtime(bound: Bound, work: Vec<f64>) -> JobRuntime {
        let spec = JobSpec::single_stage(1, 0.0, bound, work);
        let mut rng = StdRng::seed_from_u64(1);
        JobRuntime::new(
            spec,
            Box::new(Noop),
            &EstimatorConfig::oracle(),
            0.0,
            &mut rng,
        )
    }

    fn slot(n: usize) -> SlotId {
        SlotId {
            machine: 0,
            slot: n,
        }
    }

    /// A view of `rows` at `now`, through which a test reads the derived fields.
    fn view_at<'a>(rt: &JobRuntime, rows: &'a TaskRows, now: Time) -> JobView<'a> {
        JobView {
            job: rt.spec.id,
            now,
            arrival: rt.spec.arrival,
            bound: rt.spec.bound,
            input_deadline: rt.input_deadline,
            total_input_tasks: rt.spec.input_tasks(),
            completed_input_tasks: rt.completed_input(),
            total_tasks: rt.spec.total_tasks(),
            completed_tasks: rt.completed_total(),
            tasks: rows,
            tnew_estimate: TnewEstimate::Oracle,
            deadline_index: None,
            wave_width: 1,
            cluster_utilization: 0.0,
            estimation_accuracy: 1.0,
            decline_hold: Cell::new(false),
        }
    }

    fn copy(id: CopyId, start: Time, duration: Time) -> CopyRuntime {
        CopyRuntime {
            id,
            slot: slot(0),
            start,
            duration,
            rem_bias: 1.0,
        }
    }

    #[test]
    fn best_copy_ends_first_and_the_first_launched_breaks_ties() {
        let mut task = TaskRuntime::new(TaskSpec::input(1.0), 1.0);
        assert!(task.best_copy().is_none());
        // The original ends at 10; a speculative copy launched at 2 ends at 6.
        task.copies = vec![copy(0, 0.0, 10.0), copy(1, 2.0, 4.0)];
        assert_eq!(task.best_copy().map(|c| c.id), Some(1));
        // A third copy ending at 6 as well does not displace the earlier one.
        task.copies.push(copy(2, 3.0, 3.0));
        assert_eq!(task.best_copy().map(|c| c.id), Some(1));
        // Equal ends with the original: the original, launched first, wins.
        task.copies = vec![copy(0, 0.0, 6.0), copy(1, 2.0, 4.0)];
        assert_eq!(task.best_copy().map(|c| c.id), Some(0));
    }

    #[test]
    fn launch_and_complete_single_copy() {
        let mut rt = job_runtime(Bound::EXACT, vec![2.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(2);
        rt.launch_copy(
            TaskId(0),
            1,
            slot(0),
            0.0,
            2.0,
            &EstimatorConfig::oracle(),
            &mut rng,
        );
        assert_eq!(rt.allocated_slots, 1);
        assert_eq!(rt.speculative_copies, 0);
        let effect = rt.complete_copy(TaskId(0), 1, 2.0);
        assert!(effect.task_completed);
        assert!(!effect.stale);
        assert_eq!(effect.freed_slots, vec![slot(0)]);
        assert!(effect.killed_copies.is_empty());
        assert_eq!(rt.completed_input(), 1);
        assert_eq!(rt.allocated_slots, 0);
        assert!((rt.slot_seconds - 2.0).abs() < 1e-12);
        assert!(!rt.bound_satisfied());
    }

    #[test]
    fn speculative_copy_race_kills_loser() {
        let mut rt = job_runtime(Bound::EXACT, vec![5.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 10.0, &est, &mut rng);
        rt.launch_copy(TaskId(0), 2, slot(1), 2.0, 3.0, &est, &mut rng);
        assert_eq!(rt.speculative_copies, 1);
        assert_eq!(rt.allocated_slots, 2);
        // The speculative copy (id 2) finishes at t = 5.
        let effect = rt.complete_copy(TaskId(0), 2, 5.0);
        assert!(effect.task_completed);
        assert_eq!(effect.killed_copies.len(), 1);
        assert_eq!(effect.freed_slots.len(), 2);
        assert_eq!(rt.killed_copies, 1);
        assert_eq!(rt.allocated_slots, 0);
        // Slot-seconds: speculative ran 3s, original ran 5s before being killed.
        assert!((rt.slot_seconds - 8.0).abs() < 1e-12);
        // The original's finish event is now stale.
        let stale = rt.complete_copy(TaskId(0), 1, 10.0);
        assert!(stale.stale);
        assert!(rt.bound_satisfied());
    }

    #[test]
    fn task_views_report_estimates_and_truth() {
        let mut rt = job_runtime(Bound::Deadline(20.0), vec![2.0, 4.0]);
        let mut rng = StdRng::seed_from_u64(4);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 4.0, &est, &mut rng);
        let views = rt.build_task_views(1.0);
        assert_eq!(views.len(), 2);
        let view = view_at(&rt, &views, 1.0);
        let running = views.iter().find(|v| v.id == TaskId(0)).unwrap();
        assert_eq!(running.running_copies, 1);
        assert!((view.true_remaining(running) - 3.0).abs() < 1e-12);
        assert!((view.trem(running) - 3.0).abs() < 1e-12);
        assert!((view.elapsed(running) - 1.0).abs() < 1e-12);
        assert!((view.progress(running) - 0.25).abs() < 1e-12);
        let idle = views.iter().find(|v| v.id == TaskId(1)).unwrap();
        assert_eq!(idle.running_copies, 0);
        assert!(view.trem(idle).is_infinite());
        // Oracle estimates: views read `tnew` as the ground-truth hint.
        assert_eq!(rt.tnew_estimate(&est, 1.0), TnewEstimate::Oracle);
        assert!((idle.true_new_hint - 4.0).abs() < 1e-12);
    }

    #[test]
    fn completed_tasks_disappear_from_views_and_feed_tnew() {
        let mut rt = job_runtime(Bound::EXACT, vec![2.0, 2.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 6.0, &est, &mut rng);
        rt.complete_copy(TaskId(0), 1, 6.0);
        let views = rt.build_task_views(1.0);
        assert_eq!(views.len(), 1);
        // Observed duration/work = 3.0, so the non-oracle tnew estimate for the other
        // task (work 2.0) would be ~6.0; the oracle hint stays work × slowdown.
        assert!((rt.duration_per_work_estimate(1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn running_duration_per_work_sum_equals_a_left_fold_bit_for_bit() {
        // Work 0.0 (task 0) is skipped by the estimate, as before.
        let work: Vec<f64> = (0..40).map(|i| f64::from(i % 9) * 0.37).collect();
        let mut rt = job_runtime(Bound::EXACT, work.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let est = EstimatorConfig::with_accuracy(0.6);
        let mut folded: Vec<f64> = Vec::new();
        for (i, &w) in work.iter().enumerate() {
            let duration = 0.1 + (i as f64 * 1.618).fract() * 7.0;
            let task = TaskId(i as u32);
            rt.launch_copy(task, i as u64, slot(0), 0.0, duration, &est, &mut rng);
            rt.complete_copy(task, i as u64, duration);
            if w > 0.0 {
                folded.push(duration / w);
            }
            assert_eq!(
                rt.duration_per_work_sum.to_bits(),
                folded.iter().sum::<f64>().to_bits()
            );
            assert_eq!(rt.duration_per_work_count, folded.len());
        }
        let mean = folded.iter().sum::<f64>() / folded.len() as f64;
        assert_eq!(rt.duration_per_work_estimate(1.0).to_bits(), mean.to_bits());
    }

    #[test]
    fn error_bound_satisfaction_counts_needed_tasks() {
        let mut rt = job_runtime(Bound::Error(0.5), vec![1.0, 1.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(6);
        let est = EstimatorConfig::oracle();
        for i in 0..2 {
            rt.launch_copy(
                TaskId(i),
                u64::from(i) + 1,
                slot(i as usize),
                0.0,
                1.0,
                &est,
                &mut rng,
            );
            rt.complete_copy(TaskId(i), u64::from(i) + 1, 1.0);
        }
        // ε = 0.5 of 4 tasks => 2 needed.
        assert!(rt.bound_satisfied());
        assert_eq!(rt.completed_input(), 2);
    }

    #[test]
    fn multi_stage_eligibility_unlocks_after_upstream_completion() {
        let spec = JobSpec::multi_stage(7, 0.0, Bound::Error(0.5), vec![vec![1.0, 1.0], vec![2.0]]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut rt = JobRuntime::new(
            spec,
            Box::new(Noop),
            &EstimatorConfig::oracle(),
            0.0,
            &mut rng,
        );
        assert!(rt.stage_eligible(0));
        assert!(!rt.stage_eligible(1));
        let est = EstimatorConfig::oracle();
        // ε = 0.5 of 2 input tasks => 1 needed; completing one unlocks stage 1.
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 1.0, &est, &mut rng);
        rt.complete_copy(TaskId(0), 1, 1.0);
        assert!(rt.stage_eligible(1));
        assert!(!rt.bound_satisfied());
        let views = rt.build_task_views(1.0);
        let downstream = views.iter().find(|v| v.stage == StageId(1)).unwrap();
        assert!(downstream.eligible);
    }

    #[test]
    fn kill_all_copies_frees_every_slot() {
        let mut rt = job_runtime(Bound::Deadline(10.0), vec![4.0, 4.0]);
        let mut rng = StdRng::seed_from_u64(8);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 4.0, &est, &mut rng);
        rt.launch_copy(TaskId(1), 2, slot(1), 0.0, 4.0, &est, &mut rng);
        let freed = rt.kill_all_copies(2.0);
        assert_eq!(freed.len(), 2);
        assert_eq!(rt.allocated_slots, 0);
        assert_eq!(rt.killed_copies, 2);
        assert!((rt.slot_seconds - 4.0).abs() < 1e-12);
    }

    #[test]
    fn outcome_summarises_job_state() {
        let mut rt = job_runtime(Bound::Deadline(10.0), vec![2.0, 2.0]);
        let mut rng = StdRng::seed_from_u64(9);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 2.0, &est, &mut rng);
        rt.update_stats(0.0, 0.5);
        rt.complete_copy(TaskId(0), 1, 2.0);
        rt.update_stats(2.0, 0.5);
        let outcome = rt.outcome(10.0);
        assert_eq!(outcome.completed_input_tasks, 1);
        assert_eq!(outcome.input_tasks, 2);
        assert!((outcome.accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(outcome.policy, "noop");
        assert!(outcome.avg_wave_width > 0.0);
    }

    #[test]
    fn noisy_estimates_deviate_from_truth_but_stay_positive() {
        let spec = JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![5.0; 50]);
        let mut rng = StdRng::seed_from_u64(10);
        let est = EstimatorConfig::with_accuracy(0.6);
        let mut rt = JobRuntime::new(spec, Box::new(Noop), &est, 0.0, &mut rng);
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 5.0, &est, &mut rng);
        let views = rt.build_task_views(1.0);
        let view = view_at(&rt, &views, 1.0);
        // Before any completion the per-work estimate is the mean slowdown, 1.0
        // here, so `tnew` = work × bias deviates from the hint iff the bias is not 1.
        assert_eq!(rt.tnew_estimate(&est, 1.0), TnewEstimate::PerWork(1.0));
        let mut any_differs = false;
        for v in views.iter() {
            assert!(v.tnew_bias > 0.0);
            if v.is_running() {
                assert!(view.trem(v) >= 0.0);
                if (view.trem(v) - view.true_remaining(v)).abs() > 1e-9 {
                    any_differs = true;
                }
            }
            if (v.tnew_bias - 1.0).abs() > 1e-9 {
                any_differs = true;
            }
        }
        assert!(any_differs, "noisy estimator produced only exact estimates");
    }
}
