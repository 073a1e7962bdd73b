//! Task-level identifiers and the per-task view a speculation policy sees.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use serde::{Deserialize, Serialize};

/// Simulation time in seconds. The simulator is a continuous-time discrete-event model,
/// so plain `f64` seconds are the natural representation.
pub type Time = f64;

/// Identifier of a job within a trace / simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// Identifier of a task *within its job* (dense index, `0..job.total_tasks()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

/// Identifier of a DAG stage within a job. Stage 0 is always the input stage
/// (map / extract); later stages are intermediate (reduce / join) stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StageId(pub u8);

impl JobId {
    /// Raw numeric value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl TaskId {
    /// Raw numeric value, usable as an index into per-job task arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl StageId {
    /// The input stage (stage 0) drives result accuracy.
    pub const INPUT: StageId = StageId(0);

    /// Raw numeric value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Whether this is the input stage.
    pub fn is_input(self) -> bool {
        self.0 == 0
    }
}

/// Static description of a task: how much *work* it represents and which DAG stage it
/// belongs to.
///
/// `work` is expressed in seconds on an unloaded, unit-speed slot with no straggling.
/// The simulator turns work into an actual copy duration by multiplying with the
/// machine speed factor and a per-copy straggler multiplier, which is what makes
/// speculative copies worthwhile: a second copy of the same work can be much faster
/// than an original that drew a bad multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Normalised work in seconds (input-size-normalised duration, as in the paper's
    /// footnote 2: task durations are normalised by input size to resist data skew).
    pub work: f64,
    /// DAG stage this task belongs to.
    pub stage: StageId,
}

impl TaskSpec {
    /// A task in the input stage.
    pub fn input(work: f64) -> Self {
        TaskSpec {
            work,
            stage: StageId::INPUT,
        }
    }

    /// A task in an arbitrary stage.
    pub fn in_stage(work: f64, stage: u8) -> Self {
        TaskSpec {
            work,
            stage: StageId(stage),
        }
    }
}

/// Snapshot of one unfinished task handed to a [`crate::SpeculationPolicy`] when it has
/// to pick what to run on a freed slot.
///
/// A row is a pure function of its task and that task's running copies, so it never
/// depends on `now`. It keeps the *best* running copy's start, duration and estimate
/// bias and the *oldest* running copy's start, which change only when a copy launches,
/// and [`JobView`](crate::JobView) derives every field that moves with time on read, at
/// the view's `now`: [`trem`](crate::JobView::trem),
/// [`true_remaining`](crate::JobView::true_remaining),
/// [`elapsed`](crate::JobView::elapsed), [`progress`](crate::JobView::progress) and
/// [`progress_rate`](crate::JobView::progress_rate). `tnew` is read the same way
/// ([`JobView::tnew`](crate::JobView::tnew)): it scales with the job-wide per-work
/// estimate, so a row holds only its own part of it, `work` and `tnew_bias`. So
/// passing time and a completion that moves the estimate rewrite no row.
///
/// The best copy is the one that ends first by ground truth (the earliest `start +
/// duration`), the first launched among equal ends. `trem` and `tnew` are the
/// *estimates* the scheduler would have in a real deployment (progress-report
/// extrapolation and completed-task sampling, degraded to the configured estimation
/// accuracy). `true_remaining` and `true_new_hint` carry the simulator's ground truth so
/// that oracle baselines can be expressed; honest policies must not read them.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskView {
    /// Task identifier within the job.
    pub id: TaskId,
    /// DAG stage of the task.
    pub stage: StageId,
    /// Whether the task's stage has been unlocked (its upstream stage met its
    /// completion requirement). Only eligible tasks may be scheduled.
    pub eligible: bool,
    /// Number of copies of this task currently running (`c` in the paper's notation).
    pub running_copies: u32,
    /// Launch time of the best running copy. Zero if the task is not running.
    pub copy_start: Time,
    /// Ground-truth runtime of the best running copy. Zero if the task is not running.
    pub copy_duration: Time,
    /// Multiplicative estimation bias of the best running copy's remaining-time
    /// estimate, drawn once per copy (`1.0` under oracle estimates, and if the task is
    /// not running); [`JobView::trem`](crate::JobView::trem) applies it.
    pub rem_bias: f64,
    /// Launch time of the oldest running copy. Zero if the task is not running.
    pub oldest_start: Time,
    /// Multiplicative estimation bias of this task's fresh-copy estimate, drawn once
    /// per task; [`JobView::tnew`](crate::JobView::tnew) applies it.
    pub tnew_bias: f64,
    /// Ground-truth duration a new copy would take on a typical slot (oracle only).
    pub true_new_hint: Time,
    /// Normalised work of the task (from [`TaskSpec::work`]).
    pub work: f64,
}

impl TaskView {
    /// Whether at least one copy of the task is currently running.
    pub fn is_running(&self) -> bool {
        self.running_copies > 0
    }

    /// Effective duration of the task as defined in Pseudocode 2 of the paper:
    /// `min(trem, tnew)` — the soonest this task could possibly contribute to the
    /// result, over both its running copies and a hypothetical new copy. `trem` and
    /// `tnew` are this task's [`JobView::trem`](crate::JobView::trem) and
    /// [`JobView::tnew`](crate::JobView::tnew).
    pub fn effective_duration(&self, trem: Time, tnew: Time) -> Time {
        trem.min(tnew)
    }

    /// Resource saving of launching one more speculative copy, as defined for RAS:
    /// `c * trem − (c + 1) * tnew`. Positive iff speculating saves both time and
    /// resources. Returns `None` for tasks that are not running (launching the first
    /// copy is not speculation). `trem` and `tnew` are this task's
    /// [`JobView::trem`](crate::JobView::trem) and
    /// [`JobView::tnew`](crate::JobView::tnew).
    pub fn speculation_saving(&self, trem: Time, tnew: Time) -> Option<f64> {
        if !self.is_running() {
            return None;
        }
        let c = f64::from(self.running_copies);
        Some(c * trem - (c + 1.0) * tnew)
    }

    /// Whether a new copy is expected to beat the best running copy (`tnew < trem`),
    /// the GS speculation criterion. `trem` and `tnew` are this task's
    /// [`JobView::trem`](crate::JobView::trem) and
    /// [`JobView::tnew`](crate::JobView::tnew).
    pub fn new_copy_beats_running(&self, trem: Time, tnew: Time) -> bool {
        self.is_running() && tnew < trem
    }
}

/// The position [`TaskRows`] maps a task without a row to.
const NO_ROW: u32 = u32::MAX;

/// A job's rows, one per unfinished task, and where each task's row sits.
///
/// Rows come in a deterministic order that is not sorted:
/// [`remove`](TaskRows::remove) moves the last row into the removed row's place.
/// Every reader that breaks a tie breaks it by task id, never by position, so a
/// decision depends on the rows and not on their order. A task's row is one array
/// read away ([`TaskRows::get`]). The rows read as a slice through `Deref`; a caller
/// that changes a row through [`get_mut`](TaskRows::get_mut) or
/// [`iter_mut`](TaskRows::iter_mut) must not change its `id`.
///
/// **Change stamp.** A table carries a stamp that tells a reader, in O(1), that
/// nothing but removals happened to it since the reader last looked: an id drawn
/// from a process-wide counter by every constructor, [`Default`] and [`Clone`], so
/// no two tables share one, plus a version that [`get_mut`](TaskRows::get_mut),
/// [`iter_mut`](TaskRows::iter_mut), [`extend`](Extend::extend) and
/// [`clear`](TaskRows::clear) bump and [`remove`](TaskRows::remove) leaves alone.
/// Every way to change a row goes through one of the four, so an equal stamp means
/// the rows are the stamped rows minus some removed ones. GS and RAS certify their
/// error-bound declines against it. `iter_mut` counts as two changes, so a version
/// one past a stamped one means one of: a `get_mut`, which changed at most one row;
/// an `extend`, which changed none; or a `clear`. GS and RAS serve a repeat decision
/// at one instant only then (see `NeededSetMemo`). The stamp never reaches an
/// output: it differs from run to run, and no decision depends on it.
#[derive(Debug, Clone, Default)]
pub struct TaskRows {
    rows: Vec<TaskView>,
    /// `at[id]`: the position of task `id`'s row, [`NO_ROW`] if it has none.
    at: Vec<u32>,
    table: TableId,
    /// Changes other than removals since the table was made.
    version: u64,
}

/// A [`TaskRows`]' change stamp: which table, and its version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowsStamp(u64, u64);

impl RowsStamp {
    /// The stamp the table reads after one more change, such as one
    /// [`get_mut`](TaskRows::get_mut).
    #[inline]
    pub(crate) fn after_one_change(self) -> RowsStamp {
        RowsStamp(self.0, self.1.wrapping_add(1))
    }
}

/// A table's identity: every new table draws one no other table has drawn, and a
/// clone is a new table.
#[derive(Debug)]
struct TableId(u64);

impl Default for TableId {
    /// `Relaxed` is enough: the id publishes no other data, and `fetch_add` alone
    /// makes it unique.
    fn default() -> Self {
        static TABLES: AtomicU64 = AtomicU64::new(0);
        TableId(TABLES.fetch_add(1, AtomicOrdering::Relaxed))
    }
}

impl Clone for TableId {
    fn clone(&self) -> Self {
        TableId::default()
    }
}

impl TaskRows {
    /// The table's change stamp (see [`TaskRows`]).
    #[inline]
    pub(crate) fn stamp(&self) -> RowsStamp {
        RowsStamp(self.table.0, self.version)
    }

    /// Count `changes` changes that may rewrite rows.
    #[inline]
    fn changed(&mut self, changes: u64) {
        self.version = self.version.wrapping_add(changes);
    }

    /// Task `id`'s row, if it has one.
    #[inline]
    pub fn get(&self, id: TaskId) -> Option<&TaskView> {
        // `NO_ROW` lies past the end of every table.
        let row = self.rows.get(*self.at.get(id.index())? as usize)?;
        debug_assert_eq!(row.id, id, "a row's id changed under its map");
        Some(row)
    }

    /// Task `id`'s row, mutably, if it has one.
    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut TaskView> {
        self.changed(1);
        let row = self.rows.get_mut(*self.at.get(id.index())? as usize)?;
        debug_assert_eq!(row.id, id, "a row's id changed under its map");
        Some(row)
    }

    /// Every row, mutably, in row order. This counts as two changes, since it may
    /// rewrite many rows (see [`TaskRows`]).
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, TaskView> {
        self.changed(2);
        self.rows.iter_mut()
    }

    /// Remove task `id`'s row and return it. The last row takes its place, so one
    /// row moves and none shifts. The change stamp stays: every other row is as it
    /// was.
    pub fn remove(&mut self, id: TaskId) -> Option<TaskView> {
        let at = std::mem::replace(self.at.get_mut(id.index())?, NO_ROW) as usize;
        if at >= self.rows.len() {
            return None;
        }
        let row = self.rows.swap_remove(at);
        if let Some(moved) = self.rows.get(at).map(|t| t.id) {
            self.place(moved, at);
        }
        Some(row)
    }

    /// Remove every row, keeping the capacity.
    pub fn clear(&mut self) {
        self.changed(1);
        self.rows.clear();
        self.at.clear();
    }

    /// Map task `id` to position `at`, growing the map to hold it.
    fn place(&mut self, id: TaskId, at: usize) {
        let id = id.index();
        if id >= self.at.len() {
            self.at.resize(id + 1, NO_ROW);
        }
        // grass: allow(panicky-lib, "the map was just sized past id")
        self.at[id] = at as u32;
    }
}

impl std::ops::Deref for TaskRows {
    type Target = [TaskView];

    #[inline]
    fn deref(&self) -> &[TaskView] {
        &self.rows
    }
}

impl Extend<TaskView> for TaskRows {
    /// Add `rows` at the end. Their tasks must have no row yet.
    fn extend<I: IntoIterator<Item = TaskView>>(&mut self, rows: I) {
        self.changed(1);
        for row in rows {
            debug_assert!(self.get(row.id).is_none(), "{:?} has a row already", row.id);
            self.place(row.id, self.rows.len());
            self.rows.push(row);
        }
    }
}

impl FromIterator<TaskView> for TaskRows {
    fn from_iter<I: IntoIterator<Item = TaskView>>(rows: I) -> Self {
        let mut table = TaskRows::default();
        table.extend(rows);
        table
    }
}

impl From<Vec<TaskView>> for TaskRows {
    /// `rows` in their order, each task's at most once, with a map sized to the
    /// largest task id.
    fn from(rows: Vec<TaskView>) -> Self {
        let len = rows.iter().map(|t| t.id.index() + 1).max().unwrap_or(0);
        let mut table = TaskRows {
            at: vec![NO_ROW; len],
            ..TaskRows::default()
        };
        for (at, row) in rows.iter().enumerate() {
            debug_assert_eq!(
                table.at.get(row.id.index()),
                Some(&NO_ROW),
                "{:?} has two rows",
                row.id
            );
            table.place(row.id, at);
        }
        table.rows = rows;
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running_task(copies: u32) -> TaskView {
        TaskView {
            id: TaskId(0),
            stage: StageId::INPUT,
            eligible: true,
            running_copies: copies,
            copy_start: 0.0,
            copy_duration: 1.0,
            rem_bias: 1.0,
            oldest_start: 0.0,
            tnew_bias: 1.0,
            true_new_hint: 1.0,
            work: 1.0,
        }
    }

    #[test]
    fn a_row_is_72_bytes() {
        // Every field is fixed at a launch; adding one back is a visible decision.
        assert_eq!(std::mem::size_of::<TaskView>(), 72);
    }

    #[test]
    fn task_rows_map_each_task_to_its_row_through_removals() {
        let row = |id| TaskView {
            id: TaskId(id),
            ..running_task(1)
        };
        let mut rows = TaskRows::from((0..5).map(row).collect::<Vec<_>>());
        assert_eq!(rows.get(TaskId(5)), None);
        // Removing a row moves the last one into its place and no other.
        assert_eq!(rows.remove(TaskId(1)).map(|t| t.id), Some(TaskId(1)));
        assert_eq!(rows.remove(TaskId(1)), None);
        let order: Vec<u32> = rows.iter().map(|t| t.id.0).collect();
        assert_eq!(order, [0, 4, 2, 3]);
        rows.extend([row(9)]);
        for id in (0..12).map(TaskId) {
            let at = rows.iter().position(|t| t.id == id);
            assert_eq!(rows.get(id).map(|t| t.id), at.map(|_| id));
        }
        // Removing the last row moves nothing.
        rows.remove(TaskId(9));
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|t| rows.get(t.id) == Some(t)));
    }

    #[test]
    fn every_change_but_a_removal_moves_the_change_stamp() {
        let row = |id| TaskView {
            id: TaskId(id),
            ..running_task(1)
        };
        // Every constructor, `Default` and `Clone` draw a table of their own.
        let mut rows = TaskRows::from((0..4).map(row).collect::<Vec<_>>());
        let others = [
            TaskRows::default(),
            TaskRows::default(),
            (0..4).map(row).collect(),
            rows.clone(),
        ];
        let mut seen = vec![rows.stamp()];
        for other in &others {
            assert!(!seen.contains(&other.stamp()), "{:?}", other.stamp());
            seen.push(other.stamp());
        }
        // Removals, found or not, keep the stamp.
        let stamp = rows.stamp();
        rows.remove(TaskId(1));
        rows.remove(TaskId(1));
        rows.remove(TaskId(99));
        assert_eq!(rows.stamp(), stamp);
        // Every other change moves it, to a stamp no earlier state had.
        let changes: [fn(&mut TaskRows); 5] = [
            |rows| rows.get_mut(TaskId(0)).unwrap().running_copies += 1,
            |rows| rows.iter_mut().for_each(|t| t.eligible = false),
            |rows| {
                rows.extend([TaskView {
                    id: TaskId(7),
                    ..running_task(0)
                }])
            },
            |rows| rows.clear(),
            |rows| {
                rows.get_mut(TaskId(42));
            },
        ];
        for change in changes {
            change(&mut rows);
            assert!(!seen.contains(&rows.stamp()), "{:?}", rows.stamp());
            seen.push(rows.stamp());
        }
    }

    #[test]
    fn ids_expose_raw_values() {
        assert_eq!(JobId(7).value(), 7);
        assert_eq!(TaskId(3).index(), 3);
        assert_eq!(StageId(2).value(), 2);
        assert!(StageId::INPUT.is_input());
        assert!(!StageId(1).is_input());
    }

    #[test]
    fn task_spec_constructors_set_stage() {
        assert_eq!(TaskSpec::input(4.0).stage, StageId::INPUT);
        assert_eq!(TaskSpec::in_stage(4.0, 3).stage, StageId(3));
    }

    #[test]
    fn effective_duration_is_min_of_trem_and_tnew() {
        assert_eq!(running_task(1).effective_duration(5.0, 4.0), 4.0);
        assert_eq!(running_task(1).effective_duration(3.0, 4.0), 3.0);
    }

    #[test]
    fn speculation_saving_matches_paper_formula() {
        // Figure 1 (right): T1 has trem = 5, tnew = 2 with one running copy.
        // saving = 1*5 - 2*2 = 1 > 0, so RAS speculates.
        assert_eq!(running_task(1).speculation_saving(5.0, 2.0), Some(1.0));
        // Two copies already running: saving = 2*5 - 3*2 = 4.
        assert_eq!(running_task(2).speculation_saving(5.0, 2.0), Some(4.0));
        // Not running => no speculation saving defined.
        assert_eq!(running_task(0).speculation_saving(5.0, 2.0), None);
    }

    #[test]
    fn saving_negative_when_new_copy_too_slow() {
        // trem = 3, tnew = 2: a new copy helps time-wise (GS would copy) but
        // saving = 3 - 4 = -1 < 0, so RAS refuses.
        let t = running_task(1);
        assert!(t.new_copy_beats_running(3.0, 2.0));
        assert!(t.speculation_saving(3.0, 2.0).unwrap() < 0.0);
    }

    #[test]
    fn gs_criterion_requires_running_copy() {
        assert!(!running_task(0).new_copy_beats_running(3.0, 2.0));
    }
}
