//! Job specifications, approximation bounds and the per-job view handed to policies.

use std::cell::{Cell, OnceCell};

use serde::{Deserialize, Serialize};

use crate::task::{JobId, StageId, TaskId, TaskRows, TaskSpec, TaskView, Time};
use crate::{Error, Result};

/// The approximation bound of a job (§2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Bound {
    /// Deadline-bound job: maximise accuracy (fraction of input tasks completed)
    /// within `deadline` seconds of the job's arrival.
    Deadline(Time),
    /// Error-bound job: minimise the time to complete a `1 − ε` fraction of the input
    /// tasks. `Error(0.0)` is an exact job that needs every task.
    Error(f64),
}

impl Bound {
    /// An exact job (error bound of zero), which the paper treats as a special case of
    /// an error-bound job.
    pub const EXACT: Bound = Bound::Error(0.0);

    /// Validate the bound value.
    pub fn validate(&self) -> Result<()> {
        match *self {
            Bound::Deadline(d) if d.is_finite() && d > 0.0 => Ok(()),
            Bound::Deadline(d) => Err(Error::InvalidBound(format!(
                "deadline must be positive and finite, got {d}"
            ))),
            Bound::Error(e) if (0.0..1.0).contains(&e) => Ok(()),
            Bound::Error(e) => Err(Error::InvalidBound(format!(
                "error fraction must be in [0, 1), got {e}"
            ))),
        }
    }

    /// Whether this is a deadline bound.
    pub fn is_deadline(&self) -> bool {
        matches!(self, Bound::Deadline(_))
    }

    /// Whether this is an error bound (including exact jobs).
    pub fn is_error(&self) -> bool {
        matches!(self, Bound::Error(_))
    }

    /// Whether this is an exact computation (error bound of zero).
    pub fn is_exact(&self) -> bool {
        matches!(self, Bound::Error(e) if *e == 0.0)
    }

    /// Number of input tasks that must complete to satisfy the bound, out of `total`.
    /// For deadline bounds every completed task improves accuracy, so this returns
    /// `total`.
    pub fn tasks_needed(&self, total: usize) -> usize {
        match *self {
            Bound::Deadline(_) => total,
            Bound::Error(e) => {
                let needed = ((1.0 - e) * total as f64).ceil() as usize;
                needed.clamp(usize::from(total > 0), total)
            }
        }
    }
}

/// Static description of one DAG stage of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Human-readable name ("map", "reduce-1", …). Informational only.
    pub name: String,
    /// Number of tasks in this stage.
    pub task_count: usize,
}

/// Static description of a job: arrival time, approximation bound, DAG stages and the
/// per-task work amounts.
///
/// Tasks are stored stage-by-stage: all tasks of stage 0 first, then stage 1, and so
/// on. [`TaskId`]s index into this flat vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Job identifier, unique within a trace.
    pub id: JobId,
    /// Arrival (submission) time in seconds from the start of the trace.
    pub arrival: Time,
    /// Approximation bound.
    pub bound: Bound,
    /// DAG stages, input stage first. Always at least one stage.
    pub stages: Vec<StageSpec>,
    /// Flat task list, grouped by stage in stage order.
    pub tasks: Vec<TaskSpec>,
}

impl JobSpec {
    /// Build a single-stage (input-only) job from raw per-task work values.
    pub fn single_stage(id: u64, arrival: Time, bound: Bound, work: Vec<f64>) -> Self {
        let tasks: Vec<TaskSpec> = work.into_iter().map(TaskSpec::input).collect();
        JobSpec {
            id: JobId(id),
            arrival,
            bound,
            stages: vec![StageSpec {
                name: "input".to_string(),
                task_count: tasks.len(),
            }],
            tasks,
        }
    }

    /// Build a multi-stage job. `stage_work[s]` holds the work values of stage `s`.
    pub fn multi_stage(id: u64, arrival: Time, bound: Bound, stage_work: Vec<Vec<f64>>) -> Self {
        let mut stages = Vec::with_capacity(stage_work.len());
        let mut tasks = Vec::new();
        for (s, work) in stage_work.into_iter().enumerate() {
            stages.push(StageSpec {
                name: if s == 0 {
                    "input".to_string()
                } else {
                    format!("stage-{s}")
                },
                task_count: work.len(),
            });
            tasks.extend(work.into_iter().map(|w| TaskSpec::in_stage(w, s as u8)));
        }
        JobSpec {
            id: JobId(id),
            arrival,
            bound,
            stages,
            tasks,
        }
    }

    /// Validate internal consistency: bound domain, per-stage task counts,
    /// non-emptiness, and numeric sanity (arrival and task work must be finite and
    /// non-negative — a NaN or infinity here would silently poison every duration
    /// comparison downstream, so it is rejected at the decode/validation boundary).
    pub fn validate(&self) -> Result<()> {
        if self.tasks.is_empty() || self.stages.is_empty() {
            return Err(Error::EmptyJob(self.id));
        }
        self.bound.validate()?;
        if !(self.arrival.is_finite() && self.arrival >= 0.0) {
            return Err(Error::DegenerateValue {
                job: self.id,
                message: format!(
                    "arrival time {} must be finite and non-negative",
                    self.arrival
                ),
            });
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if !(t.work.is_finite() && t.work >= 0.0) {
                return Err(Error::DegenerateValue {
                    job: self.id,
                    message: format!("task {i} work {} must be finite and non-negative", t.work),
                });
            }
        }
        // Saturating: the counts are untrusted decode input, and a sum past
        // usize::MAX can never match the task list anyway.
        let declared = self
            .stages
            .iter()
            .fold(0usize, |sum, s| sum.saturating_add(s.task_count));
        if declared != self.tasks.len() {
            return Err(Error::InvalidBound(format!(
                "job {:?}: stage task counts sum to {declared} but {} tasks are declared",
                self.id,
                self.tasks.len()
            )));
        }
        for t in &self.tasks {
            if t.stage.value() as usize >= self.stages.len() {
                return Err(Error::UnknownStage {
                    job: self.id,
                    stage: t.stage,
                });
            }
        }
        Ok(())
    }

    /// Total number of tasks across all stages.
    pub fn total_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks in the input stage (stage 0) — the stage that determines result
    /// accuracy.
    pub fn input_tasks(&self) -> usize {
        self.stages.first().map_or(0, |s| s.task_count)
    }

    /// Number of DAG stages.
    pub fn dag_length(&self) -> usize {
        self.stages.len()
    }

    /// Number of input-stage tasks that must complete to satisfy the bound.
    pub fn input_tasks_needed(&self) -> usize {
        self.bound.tasks_needed(self.input_tasks())
    }

    /// Total work (seconds of unit-speed slot time) summed over every task.
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.work).sum()
    }

    /// Median work of the input-stage tasks. Used for the paper's "ideal duration"
    /// deadline calibration (§6.1) and by the strawman switcher.
    pub fn median_input_work(&self) -> f64 {
        let mut w: Vec<f64> = self
            .tasks
            .iter()
            .filter(|t| t.stage.is_input())
            .map(|t| t.work)
            .collect();
        if w.is_empty() {
            return 0.0;
        }
        w.sort_by(f64::total_cmp);
        w.get(w.len() / 2).copied().unwrap_or(0.0)
    }

    /// Task ids belonging to the given stage.
    pub fn tasks_of_stage(&self, stage: StageId) -> Vec<TaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.stage == stage)
            .map(|(i, _)| TaskId(i as u32))
            .collect()
    }
}

/// Where a job's fresh-copy estimates come from: the input of [`JobView::tnew`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TnewEstimate {
    /// The job's estimate of a fresh copy's duration per unit work: the mean of its
    /// completed copy durations per work, or the cluster's mean slowdown before any
    /// completion. It moves only when one of the job's tasks completes.
    PerWork(f64),
    /// Oracle estimates: a fresh copy takes its ground-truth hint,
    /// [`TaskView::true_new_hint`].
    Oracle,
}

impl TnewEstimate {
    /// The key a [`DeadlineIndex`] orders `task` by, if it is fresh: `work ×
    /// tnew_bias` under a per-work estimate, the hint under oracle estimates.
    pub(crate) fn tnew_key(self, task: &TaskView) -> f64 {
        match self {
            TnewEstimate::PerWork(_) => task.work * task.tnew_bias,
            TnewEstimate::Oracle => task.true_new_hint,
        }
    }

    /// A lower bound on [`JobView::tnew`] of every row whose
    /// [`tnew_key`](TnewEstimate::tnew_key) is `key`, non-decreasing in `key`.
    ///
    /// Under a per-work estimate `p` it is `fl(key × p) × (1 − 1e-9)`: `tnew` rounds
    /// `(work × p) × tnew_bias` where this rounds `(work × tnew_bias) × p`, so the two
    /// products differ by at most four rounding errors, `fl(fl(w·p)·b) ≥ fl(fl(w·b)·p)
    /// × (1 − 4u)`, far inside the `1e-9` margin; the `1e-6` floor only raises `tnew`,
    /// and a product past `f64::MAX` bounds from `f64::MAX`. Under oracle estimates the
    /// key is `tnew` itself.
    pub(crate) fn tnew_floor(self, key: f64) -> f64 {
        match self {
            TnewEstimate::PerWork(per_work) => (key * per_work).min(f64::MAX) * (1.0 - 1e-9),
            TnewEstimate::Oracle => key,
        }
    }
}

/// A deadline-bound job's rows as Pseudocode 1 reads them: its eligible fresh rows in
/// `tnew`-key order and its running rows, so a decision reads the front of the one
/// and all of the other instead of every row. A row's key is the part of
/// [`JobView::tnew`] that depends on the row alone: `work × tnew_bias` under a
/// per-work estimate, the hint itself under oracle estimates. It depends on neither
/// `now` nor the per-work estimate, so no completion reorders the rows.
///
/// It is built for one estimate kind, per-work or oracle
/// ([`DeadlineIndex::is_for`]), from the rows of a [`JobView`], and for those rows.
/// Both of its lists hold task ids, and it reads a row through the rows' id map
/// ([`TaskRows::get`]), so the order of the rows, which is not sorted, never shows:
///
/// * the fresh order holds the task id of every eligible row with no running copy,
///   sorted by (key, task id). It may also hold *stale* entries, tasks that launched
///   or finished after they joined it; [`DeadlineIndex::fresh_rows`] skips them, and
///   a launch of the front row drops it and the stale entries behind it, so the
///   front is live;
/// * the running list holds the task id of every row with a running copy, ascending.
///
/// A row's key never changes and a running row never becomes fresh again, so only a
/// first launch, a row's removal and a stage's unlock move the index; its owner
/// reports each through [`launched`](DeadlineIndex::launched),
/// [`removed`](DeadlineIndex::removed) and [`unlocked`](DeadlineIndex::unlocked).
#[derive(Debug, Clone)]
pub struct DeadlineIndex {
    /// The estimate the keys were built under; only its kind matters.
    kind: TnewEstimate,
    /// Task ids by (key, task id); the entries before `start` are stale.
    fresh: Vec<u32>,
    start: usize,
    /// Task ids of the running rows, ascending.
    running: Vec<u32>,
}

impl DeadlineIndex {
    /// The index of `rows`, keyed for `estimate`'s kind.
    pub fn build(rows: &TaskRows, estimate: TnewEstimate) -> Self {
        let mut running: Vec<u32> = rows
            .iter()
            .filter(|t| t.is_running())
            .map(|t| t.id.0)
            .collect();
        running.sort_unstable();
        let mut index = DeadlineIndex {
            kind: estimate,
            fresh: Vec::new(),
            start: 0,
            running,
        };
        index.unlocked(rows);
        index
    }

    /// Whether the keys were built for `estimate`'s kind, so that a view under
    /// `estimate` may read this index.
    pub fn is_for(&self, estimate: TnewEstimate) -> bool {
        std::mem::discriminant(&self.kind) == std::mem::discriminant(&estimate)
    }

    /// The eligible rows of `rows` with no running copy, by (key, task id).
    pub fn fresh_rows<'r>(&'r self, rows: &'r TaskRows) -> impl Iterator<Item = &'r TaskView> {
        let ids = self.fresh.get(self.start..).unwrap_or_default();
        ids.iter()
            .filter_map(|&id| rows.get(TaskId(id)).filter(|t| !t.is_running()))
    }

    /// The rows of `rows` with a running copy, by task id.
    pub fn running_rows<'r>(&'r self, rows: &'r TaskRows) -> impl Iterator<Item = &'r TaskView> {
        self.running.iter().filter_map(|&id| rows.get(TaskId(id)))
    }

    /// Record a copy of `task` launched: a first copy moves its row from the fresh
    /// order to the running list.
    pub fn launched(&mut self, rows: &TaskRows, task: TaskId) {
        if rows.get(task).is_none_or(|t| t.running_copies != 1) {
            return;
        }
        let i = self.running.partition_point(|&id| id < task.0);
        self.running.insert(i, task.0);
        // Every other launch leaves a live front live; this one moves the front
        // past itself and the stale entries behind it.
        if self.fresh.get(self.start) == Some(&task.0) {
            self.start += 1;
            while let Some(&id) = self.fresh.get(self.start) {
                if rows.get(TaskId(id)).is_some_and(|t| !t.is_running()) {
                    break;
                }
                self.start += 1;
            }
        }
    }

    /// Record the removal of `task`'s row, a completed task's: it leaves the running
    /// list.
    pub fn removed(&mut self, task: TaskId) {
        if let Ok(i) = self.running.binary_search(&task.0) {
            self.running.remove(i);
        }
    }

    /// Rebuild the fresh order from `rows` after a stage's rows became eligible.
    pub fn unlocked(&mut self, rows: &TaskRows) {
        let mut keyed: Vec<(u64, u32)> = rows
            .iter()
            .filter(|t| t.eligible && !t.is_running())
            .map(|t| (total_order(self.kind.tnew_key(t)), t.id.0))
            .collect();
        keyed.sort_unstable();
        self.start = 0;
        self.fresh.clear();
        self.fresh.extend(keyed.iter().map(|&(_, id)| id));
    }
}

/// `x`'s place in the [`f64::total_cmp`] order as an unsigned integer: negatives
/// flip every bit, so larger magnitudes sort lower; positives set the sign bit, so
/// they sort above them.
pub(crate) fn total_order(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Snapshot of a job's state handed to its [`crate::SpeculationPolicy`] whenever a slot
/// allocated to the job becomes free.
#[derive(Debug, Clone)]
pub struct JobView<'a> {
    /// Which job this is.
    pub job: JobId,
    /// Current simulation time.
    pub now: Time,
    /// The job's arrival time.
    pub arrival: Time,
    /// The job's approximation bound.
    pub bound: Bound,
    /// Effective deadline for the *input stage*, relative to arrival. For single-stage
    /// deadline jobs this equals the bound; for DAG jobs the simulator subtracts its
    /// estimate of the intermediate stages' duration (§5.2 of the paper). `None` for
    /// error-bound jobs.
    pub input_deadline: Option<Time>,
    /// Total number of input-stage tasks.
    pub total_input_tasks: usize,
    /// Input-stage tasks completed so far.
    pub completed_input_tasks: usize,
    /// Total tasks (all stages).
    pub total_tasks: usize,
    /// Completed tasks (all stages).
    pub completed_tasks: usize,
    /// Views of every *unfinished* task of the job (running or not, eligible or not),
    /// with the map from task id to row ([`TaskRows::get`]). The rows come in a
    /// deterministic order that is not sorted, so a reader breaks every tie by task
    /// id, never by position. A row holds neither job-wide state nor anything that
    /// depends on `now`: read a task's `tnew`, `trem` and progress through this view's
    /// methods ([`JobView::tnew`], [`JobView::trem`], [`JobView::progress`], …).
    pub tasks: &'a TaskRows,
    /// The job-wide input of every row's [`JobView::tnew`].
    pub tnew_estimate: TnewEstimate,
    /// Where the caller keeps `tasks`' fresh rows in `tnew`-key order and running
    /// rows: the simulator keeps one cell per job and keeps its index current once
    /// built. GS, RAS and GRASS build the index into the cell at a deadline-bound
    /// job's first decision, and read it when it [is for](DeadlineIndex::is_for)
    /// `tnew_estimate`'s kind; otherwise they build one from `tasks`, so `None` (or an
    /// index of the other kind) costs one sort per decision and changes no decision.
    /// LATE, Mantri and no speculation never read one, so never build one.
    pub deadline_index: Option<&'a OnceCell<DeadlineIndex>>,
    /// Number of slots currently allocated to this job (its current wave width).
    pub wave_width: usize,
    /// Fraction of the cluster's slots that are currently busy, in `[0, 1]`.
    pub cluster_utilization: f64,
    /// Measured estimation accuracy of `trem`/`tnew` (1.0 = perfect), as tracked by
    /// the scheduler from completed tasks.
    pub estimation_accuracy: f64,
    /// Held-decline hint. Build views with `Cell::new(false)`; only
    /// [`JobView::hold_decline`] sets it.
    pub decline_hold: Cell<bool>,
}

impl<'a> JobView<'a> {
    /// Mark the `None` that [`crate::SpeculationPolicy::choose`] is about to return
    /// for this view as *held*: the policy would decline again at every later time,
    /// whatever the rest of the cluster does, until one of this job's own tasks,
    /// copies or completed counts changes. The simulator then offers the job no slot
    /// until one of its copies finishes. This is the second half of the
    /// [`crate::SpeculationPolicy::choose`] contract; the first, that a job which
    /// declined is not asked again within the same dispatch pass, holds for every
    /// policy whether or not it calls this.
    ///
    /// Set it only for a decision that reads nothing but the job's own state, the
    /// bound and `now`. GS and RAS qualify: while the job is unchanged,
    /// [`JobView::trem`], [`TaskView::speculation_saving`] and
    /// [`JobView::remaining_deadline`] only shrink as `now` grows, and eligibility
    /// and [`JobView::tnew`] stay fixed (the per-work estimate in
    /// [`TnewEstimate::PerWork`] moves only when one of the job's tasks completes),
    /// so no pruned task comes back. A decision that reads
    /// utilisation, fair share or shared learned state must not hold: GRASS before
    /// its mode is final, or LATE, whose speculation budget scales with the wave
    /// width.
    pub fn hold_decline(&self) {
        self.decline_hold.set(true);
    }

    /// Estimated duration of a freshly launched copy of `task`, one of this view's
    /// rows: `(work × per_work) × tnew_bias`, in that order, floored at `1e-6`; or
    /// the ground-truth hint under [`TnewEstimate::Oracle`]. Every reader of `tnew`
    /// goes through here.
    pub fn tnew(&self, task: &TaskView) -> Time {
        match self.tnew_estimate {
            TnewEstimate::PerWork(per_work) => (task.work * per_work * task.tnew_bias).max(1e-6),
            TnewEstimate::Oracle => task.true_new_hint,
        }
    }

    /// Ground-truth remaining duration of `task`'s best running copy at `now`:
    /// `(copy_start + copy_duration) − now`, in that order, clamped at zero;
    /// `f64::INFINITY` if the task is not running. Oracle baselines only.
    #[inline]
    pub fn true_remaining(&self, task: &TaskView) -> Time {
        if !task.is_running() {
            return f64::INFINITY;
        }
        (task.copy_start + task.copy_duration - self.now).max(0.0)
    }

    /// Estimated remaining duration of `task`'s best running copy at `now`: its
    /// [`JobView::true_remaining`] times the copy's `rem_bias`, clamped at zero, or
    /// the ground truth itself under [`TnewEstimate::Oracle`] (where the simulator
    /// gives every copy a unit bias anyway, so the two agree bit for bit);
    /// `f64::INFINITY` if the task is not running. Every reader of `trem` goes
    /// through here.
    #[inline]
    pub fn trem(&self, task: &TaskView) -> Time {
        match self.tnew_estimate {
            TnewEstimate::PerWork(_) => (self.true_remaining(task) * task.rem_bias).max(0.0),
            TnewEstimate::Oracle => self.true_remaining(task),
        }
    }

    /// Time `task`'s *oldest* running copy has been executing at `now`, clamped at
    /// zero; zero if the task is not running.
    #[inline]
    pub fn elapsed(&self, task: &TaskView) -> Time {
        if !task.is_running() {
            return 0.0;
        }
        (self.now - task.oldest_start).max(0.0)
    }

    /// Progress fraction in `[0, 1]` of `task`'s best running copy at `now`: `1.0` if
    /// its duration is not positive; zero if the task is not running.
    #[inline]
    pub fn progress(&self, task: &TaskView) -> f64 {
        if !task.is_running() {
            return 0.0;
        }
        if task.copy_duration <= 0.0 {
            return 1.0;
        }
        ((self.now - task.copy_start).max(0.0) / task.copy_duration).min(1.0)
    }

    /// Progress per second (used by LATE-style baselines): [`JobView::progress`] over
    /// [`JobView::elapsed`], or zero while no time has elapsed.
    #[inline]
    pub fn progress_rate(&self, task: &TaskView) -> f64 {
        let elapsed = self.elapsed(task);
        if elapsed > 0.0 {
            self.progress(task) / elapsed
        } else {
            0.0
        }
    }

    /// Whether the policy held its decline on this view (see
    /// [`JobView::hold_decline`]).
    pub fn is_decline_held(&self) -> bool {
        self.decline_hold.get()
    }

    /// Seconds left until the (input-stage) deadline, or `None` for error-bound jobs.
    /// Saturates at zero.
    pub fn remaining_deadline(&self) -> Option<Time> {
        let deadline = self.input_deadline.or(match self.bound {
            Bound::Deadline(d) => Some(d),
            Bound::Error(_) => None,
        })?;
        Some((self.arrival + deadline - self.now).max(0.0))
    }

    /// How many more *input-stage* tasks must complete to satisfy an error bound.
    /// Returns `None` for deadline-bound jobs.
    pub fn input_tasks_still_needed(&self) -> Option<usize> {
        match self.bound {
            Bound::Deadline(_) => None,
            Bound::Error(_) => {
                let needed = self.bound.tasks_needed(self.total_input_tasks);
                Some(needed.saturating_sub(self.completed_input_tasks))
            }
        }
    }

    /// Current accuracy of the result: fraction of input tasks completed.
    pub fn current_accuracy(&self) -> f64 {
        if self.total_input_tasks == 0 {
            return 0.0;
        }
        self.completed_input_tasks as f64 / self.total_input_tasks as f64
    }

    /// Unfinished tasks that are eligible to run (their stage is unlocked).
    pub fn eligible_tasks(&self) -> impl Iterator<Item = &TaskView> {
        self.tasks.iter().filter(|t| t.eligible)
    }

    /// Number of unfinished, eligible tasks that have no running copy yet.
    pub fn unscheduled_eligible(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.eligible && !t.is_running())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_with(bound: Bound, tasks: &TaskRows) -> JobView<'_> {
        JobView {
            job: JobId(1),
            now: 10.0,
            arrival: 0.0,
            bound,
            input_deadline: None,
            total_input_tasks: 10,
            completed_input_tasks: 4,
            total_tasks: 10,
            completed_tasks: 4,
            tasks,
            tnew_estimate: TnewEstimate::PerWork(1.0),
            deadline_index: None,
            wave_width: 2,
            cluster_utilization: 0.5,
            estimation_accuracy: 0.75,
            decline_hold: Cell::new(false),
        }
    }

    fn row(work: f64, tnew_bias: f64, true_new_hint: f64) -> TaskView {
        TaskView {
            id: TaskId(0),
            stage: StageId::INPUT,
            eligible: true,
            running_copies: 0,
            copy_start: 0.0,
            copy_duration: 0.0,
            rem_bias: 1.0,
            oldest_start: 0.0,
            tnew_bias,
            true_new_hint,
            work,
        }
    }

    #[test]
    fn derived_fields_follow_the_best_and_the_oldest_copy() {
        // Two copies: the oldest started at 1, the best at 3 and ends at 3 + 4 = 7.
        let running = TaskView {
            running_copies: 2,
            copy_start: 3.0,
            copy_duration: 4.0,
            rem_bias: 1.5,
            oldest_start: 1.0,
            ..row(2.0, 1.0, 2.0)
        };
        let fresh = row(2.0, 1.0, 2.0);
        let none = TaskRows::default();
        let mut v = view_with(Bound::Error(0.1), &none);
        v.now = 5.0;
        assert_eq!(v.true_remaining(&running), 2.0);
        assert_eq!(v.trem(&running), 3.0);
        assert_eq!(v.elapsed(&running), 4.0);
        assert_eq!(v.progress(&running), 0.5);
        assert_eq!(v.progress_rate(&running), 0.125);
        // Past the best copy's end every remaining time clamps at zero and its
        // progress at one.
        v.now = 9.0;
        assert_eq!(v.true_remaining(&running), 0.0);
        assert_eq!(v.trem(&running), 0.0);
        assert_eq!(v.progress(&running), 1.0);
        // A row with no copy: nothing remains to run, nothing has elapsed.
        assert_eq!(v.true_remaining(&fresh), f64::INFINITY);
        assert_eq!(v.trem(&fresh), f64::INFINITY);
        assert_eq!(v.elapsed(&fresh), 0.0);
        assert_eq!(v.progress(&fresh), 0.0);
        assert_eq!(v.progress_rate(&fresh), 0.0);
    }

    #[test]
    fn tnew_scales_work_by_the_per_work_estimate_and_the_bias() {
        let tasks = [row(2.0, 1.5, 9.0), row(0.0, 0.8, 0.0)];
        let none = TaskRows::default();
        let mut v = view_with(Bound::Deadline(5.0), &none);
        v.tnew_estimate = TnewEstimate::PerWork(1.3);
        assert_eq!(v.tnew(&tasks[0]).to_bits(), (2.0f64 * 1.3 * 1.5).to_bits());
        // Zero work is floored, so no fresh copy is estimated to take no time.
        assert_eq!(v.tnew(&tasks[1]), 1e-6);
    }

    #[test]
    fn a_deadline_index_follows_launches_removals_and_unlocks() {
        // Tasks 0–2 of keys 3, 1 and 2, and task 3 of key 0 waiting for its stage.
        let mut rows = TaskRows::from(
            [3.0, 1.0, 2.0, 0.0]
                .into_iter()
                .zip(0..)
                .map(|(work, id)| TaskView {
                    id: TaskId(id),
                    eligible: id < 3,
                    ..row(work, 1.0, work)
                })
                .collect::<Vec<_>>(),
        );
        let mut index = DeadlineIndex::build(&rows, TnewEstimate::PerWork(1.0));
        assert!(index.is_for(TnewEstimate::PerWork(2.0)) && !index.is_for(TnewEstimate::Oracle));
        let ids =
            |rows: &mut dyn Iterator<Item = &TaskView>| rows.map(|t| t.id.0).collect::<Vec<_>>();
        assert_eq!(ids(&mut index.fresh_rows(&rows)), [1, 2, 0]);
        assert_eq!(ids(&mut index.running_rows(&rows)), []);

        let launch = |rows: &mut TaskRows, index: &mut DeadlineIndex, id| {
            rows.get_mut(TaskId(id)).unwrap().running_copies = 1;
            index.launched(rows, TaskId(id));
        };
        // Launching the front moves it to the running list.
        launch(&mut rows, &mut index, 1);
        assert_eq!(ids(&mut index.fresh_rows(&rows)), [2, 0]);
        assert_eq!(ids(&mut index.running_rows(&rows)), [1]);
        // A launch behind the front leaves a stale entry, which readers skip.
        launch(&mut rows, &mut index, 0);
        assert_eq!(ids(&mut index.fresh_rows(&rows)), [2]);
        assert_eq!(ids(&mut index.running_rows(&rows)), [0, 1]);
        // Task 0 completes: its row goes, and task 3's row takes its place.
        rows.remove(TaskId(0));
        index.removed(TaskId(0));
        assert_eq!(ids(&mut rows.iter()), [3, 1, 2]);
        assert_eq!(ids(&mut index.running_rows(&rows)), [1]);
        // Task 3's stage unlocks, and it joins the fresh order.
        rows.get_mut(TaskId(3)).unwrap().eligible = true;
        index.unlocked(&rows);
        assert_eq!(ids(&mut index.fresh_rows(&rows)), [3, 2]);
        assert_eq!(ids(&mut index.running_rows(&rows)), [1]);
    }

    #[test]
    fn oracle_tnew_is_the_true_new_hint_bit_for_bit() {
        // Zero work: the ground truth is 0.0 (or -0.0), where the estimated path's
        // 1e-6 floor would answer differently.
        let tasks = [row(0.0, 1.0, 0.0), row(0.0, 1.0, -0.0), row(3.0, 0.7, 4.1)];
        let none = TaskRows::default();
        let mut v = view_with(Bound::Error(0.1), &none);
        v.tnew_estimate = TnewEstimate::Oracle;
        for t in &tasks {
            assert_eq!(v.tnew(t).to_bits(), t.true_new_hint.to_bits());
        }
        v.tnew_estimate = TnewEstimate::PerWork(1.0);
        assert_ne!(
            v.tnew(&tasks[0]).to_bits(),
            tasks[0].true_new_hint.to_bits()
        );
    }

    #[test]
    fn bound_validation() {
        assert!(Bound::Deadline(10.0).validate().is_ok());
        assert!(Bound::Deadline(0.0).validate().is_err());
        assert!(Bound::Deadline(f64::NAN).validate().is_err());
        assert!(Bound::Error(0.0).validate().is_ok());
        assert!(Bound::Error(0.3).validate().is_ok());
        assert!(Bound::Error(1.0).validate().is_err());
        assert!(Bound::Error(-0.1).validate().is_err());
    }

    #[test]
    fn tasks_needed_rounds_up() {
        assert_eq!(Bound::Error(0.0).tasks_needed(10), 10);
        assert_eq!(Bound::Error(0.25).tasks_needed(10), 8);
        assert_eq!(Bound::Error(0.21).tasks_needed(10), 8);
        assert_eq!(Bound::Error(0.5).tasks_needed(3), 2);
        assert_eq!(Bound::Deadline(5.0).tasks_needed(10), 10);
        // Never zero for a non-empty job.
        assert_eq!(Bound::Error(0.99).tasks_needed(10), 1);
    }

    #[test]
    fn exact_detection() {
        assert!(Bound::EXACT.is_exact());
        assert!(!Bound::Error(0.1).is_exact());
        assert!(!Bound::Deadline(5.0).is_exact());
    }

    #[test]
    fn degenerate_numeric_fields_fail_validation() {
        // NaN / infinite / negative task work would poison every duration
        // comparison downstream; validation rejects it at the boundary.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let job = JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![1.0, bad]);
            let err = job.validate().unwrap_err();
            assert!(
                matches!(err, Error::DegenerateValue { .. }),
                "work {bad}: {err}"
            );
        }
        for bad in [f64::NAN, f64::NEG_INFINITY, -0.5] {
            let job = JobSpec::single_stage(1, bad, Bound::EXACT, vec![1.0]);
            assert!(job.validate().is_err(), "arrival {bad} must be rejected");
        }
        // Zero work and zero arrival stay legal.
        assert!(JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![0.0])
            .validate()
            .is_ok());
    }

    #[test]
    fn single_stage_job_shape() {
        let job = JobSpec::single_stage(3, 1.0, Bound::Deadline(20.0), vec![1.0, 2.0, 3.0]);
        assert!(job.validate().is_ok());
        assert_eq!(job.total_tasks(), 3);
        assert_eq!(job.input_tasks(), 3);
        assert_eq!(job.dag_length(), 1);
        assert_eq!(job.total_work(), 6.0);
        assert_eq!(job.median_input_work(), 2.0);
    }

    #[test]
    fn multi_stage_job_shape() {
        let job = JobSpec::multi_stage(
            4,
            0.0,
            Bound::Error(0.2),
            vec![vec![1.0; 10], vec![2.0; 4], vec![3.0; 1]],
        );
        assert!(job.validate().is_ok());
        assert_eq!(job.total_tasks(), 15);
        assert_eq!(job.input_tasks(), 10);
        assert_eq!(job.dag_length(), 3);
        assert_eq!(job.input_tasks_needed(), 8);
        assert_eq!(job.tasks_of_stage(StageId(1)).len(), 4);
        assert_eq!(job.tasks_of_stage(StageId(2)), vec![TaskId(14)]);
    }

    #[test]
    fn validation_catches_empty_and_mismatched_jobs() {
        let empty = JobSpec::single_stage(1, 0.0, Bound::Deadline(5.0), vec![]);
        assert!(matches!(empty.validate(), Err(Error::EmptyJob(_))));

        let mut bad = JobSpec::single_stage(1, 0.0, Bound::Deadline(5.0), vec![1.0]);
        bad.stages[0].task_count = 2;
        assert!(bad.validate().is_err());

        // Stage counts whose sum overflows usize are a mismatch, not a panic.
        let mut overflow = JobSpec::multi_stage(1, 0.0, Bound::EXACT, vec![vec![1.0], vec![]]);
        overflow.stages[0].task_count = usize::MAX;
        overflow.stages[1].task_count = 2;
        assert!(matches!(overflow.validate(), Err(Error::InvalidBound(_))));

        let mut bad_stage = JobSpec::single_stage(1, 0.0, Bound::Deadline(5.0), vec![1.0]);
        bad_stage.tasks[0].stage = StageId(3);
        assert!(matches!(
            bad_stage.validate(),
            Err(Error::UnknownStage { .. })
        ));
    }

    #[test]
    fn remaining_deadline_saturates_at_zero() {
        let tasks = TaskRows::default();
        let mut v = view_with(Bound::Deadline(8.0), &tasks);
        assert_eq!(v.remaining_deadline(), Some(0.0));
        v.now = 3.0;
        assert_eq!(v.remaining_deadline(), Some(5.0));
        let v = view_with(Bound::Error(0.1), &tasks);
        assert_eq!(v.remaining_deadline(), None);
    }

    #[test]
    fn input_deadline_overrides_bound_for_dag_jobs() {
        let tasks = TaskRows::default();
        let mut v = view_with(Bound::Deadline(8.0), &tasks);
        v.now = 2.0;
        v.input_deadline = Some(6.0);
        assert_eq!(v.remaining_deadline(), Some(4.0));
    }

    #[test]
    fn error_bound_tasks_still_needed() {
        let tasks = TaskRows::default();
        let v = view_with(Bound::Error(0.3), &tasks);
        // needed = ceil(0.7 * 10) = 7, completed 4 => 3 more.
        assert_eq!(v.input_tasks_still_needed(), Some(3));
        let v = view_with(Bound::Deadline(5.0), &tasks);
        assert_eq!(v.input_tasks_still_needed(), None);
    }

    #[test]
    fn current_accuracy_is_completed_fraction() {
        let tasks = TaskRows::default();
        let v = view_with(Bound::Deadline(5.0), &tasks);
        assert!((v.current_accuracy() - 0.4).abs() < 1e-12);
    }
}
