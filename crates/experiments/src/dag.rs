//! Figure 9: GRASS's gains as a function of the job DAG's length (2–6 stages), for
//! deadline- and error-bound jobs on the Facebook and Bing workloads.

use grass_metrics::{Report, Table};
use grass_workload::{BoundSpec, Framework, GeneratedWorkload, TraceProfile};

use crate::common::{compare, improvement_cell, workload, ExpConfig, PolicyKind};

/// The DAG lengths swept in Figure 9.
pub const DAG_LENGTHS: [usize; 5] = [2, 3, 4, 5, 6];

/// Figure 9: improvement of GRASS over LATE versus the number of DAG stages.
pub fn fig9(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig9");
    for (bound, label) in [
        (
            BoundSpec::paper_deadlines(),
            "Figure 9a: deadline-bound jobs",
        ),
        (BoundSpec::paper_errors(), "Figure 9b: error-bound jobs"),
    ] {
        let mut table = Table::new(
            format!("{label}: improvement vs LATE by DAG length"),
            vec!["Length of DAG", "Facebook", "Bing"],
        );
        for dag in DAG_LENGTHS {
            let mut cells = Vec::new();
            for profile in [
                TraceProfile::facebook(Framework::Hadoop),
                TraceProfile::bing(Framework::Hadoop),
            ] {
                let wl = workload(exp, profile, bound).with_dag_length(dag);
                let source = GeneratedWorkload::new(wl);
                let cmp = compare(exp, &source, &PolicyKind::Late, &PolicyKind::grass());
                cells.push(improvement_cell(cmp.overall));
            }
            table.push_row(format!("{dag}"), cells);
        }
        report.add_table(table);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_lengths_match_the_paper_sweep() {
        assert_eq!(DAG_LENGTHS, [2, 3, 4, 5, 6]);
    }

    #[test]
    fn dag_workloads_have_requested_length() {
        let exp = ExpConfig::tiny();
        let wl = workload(
            &exp,
            TraceProfile::facebook(Framework::Hadoop),
            BoundSpec::paper_errors(),
        )
        .with_dag_length(4);
        let jobs = grass_workload::generate(&wl, 3);
        assert!(jobs.iter().all(|j| j.dag_length() == 4));
    }
}
