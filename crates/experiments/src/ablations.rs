//! Design-decision ablations of §6.3: the value of switching between RAS and GS
//! (Figures 10 and 11), learned versus strawman switching (Figure 12), the three
//! learning factors (Figures 13 and 14), and the sensitivity to the perturbation
//! probability ξ (Figure 15).
//!
//! As in the paper, these use the Facebook workload with LATE as the baseline (the
//! Bing/Mantri results are qualitatively identical), except Figure 15 which shows both
//! workloads.

use grass_core::FactorSet;
use grass_metrics::{Report, Table};
use grass_workload::{BoundSpec, Framework, GeneratedWorkload, TraceProfile, WorkloadConfig};

use crate::common::{
    compare, compare_outcomes, improvement_cell, run_policy, size_bin_rows, workload, ExpConfig,
    PolicyKind,
};

/// Improvement-vs-LATE table with one column per candidate policy and one row per
/// job-size bin (plus an overall row).
fn candidates_table(
    exp: &ExpConfig,
    title: &str,
    wl: &WorkloadConfig,
    candidates: &[(PolicyKind, &str)],
) -> Table {
    let source = GeneratedWorkload::new(*wl);
    let baseline = PolicyKind::Late;
    let base = run_policy(exp, &source, &baseline);
    let comparisons: Vec<_> = candidates
        .iter()
        .map(|(policy, _)| {
            let cand = run_policy(exp, &source, policy);
            compare_outcomes(&source, &baseline, policy, &base, &cand)
        })
        .collect();

    let mut columns = vec!["Job Bin"];
    columns.extend(candidates.iter().map(|(_, label)| *label));
    size_bin_rows(title, columns, &comparisons)
}

fn switching_candidates() -> Vec<(PolicyKind, &'static str)> {
    vec![
        (PolicyKind::GsOnly, "GS-only"),
        (PolicyKind::RasOnly, "RAS-only"),
        (PolicyKind::grass(), "GRASS"),
    ]
}

/// Figure 10: GS-only / RAS-only / GRASS for deadline-bound jobs (Facebook workload,
/// Hadoop and Spark profiles, LATE baseline).
pub fn fig10(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig10");
    for framework in [Framework::Hadoop, Framework::Spark] {
        let wl = workload(
            exp,
            TraceProfile::facebook(framework),
            BoundSpec::paper_deadlines(),
        );
        report.add_table(candidates_table(
            exp,
            format!(
                "Figure 10 ({}): value of switching, deadline-bound (vs LATE)",
                framework.label()
            )
            .as_str(),
            &wl,
            &switching_candidates(),
        ));
    }
    report
}

/// Figure 11: the same comparison for error-bound jobs.
pub fn fig11(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig11");
    for framework in [Framework::Hadoop, Framework::Spark] {
        let wl = workload(
            exp,
            TraceProfile::facebook(framework),
            BoundSpec::paper_errors(),
        );
        report.add_table(candidates_table(
            exp,
            format!(
                "Figure 11 ({}): value of switching, error-bound (vs LATE)",
                framework.label()
            )
            .as_str(),
            &wl,
            &switching_candidates(),
        ));
    }
    report
}

/// Figure 12: learned switching versus the static two-wave strawman, deadline- and
/// error-bound jobs (Facebook workload, Spark profile).
pub fn fig12(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig12");
    let candidates = vec![
        (PolicyKind::strawman(), "Strawman"),
        (PolicyKind::grass(), "GRASS"),
    ];
    for (bound, label) in [
        (
            BoundSpec::paper_deadlines(),
            "Figure 12a: deadline-bound jobs",
        ),
        (BoundSpec::paper_errors(), "Figure 12b: error-bound jobs"),
    ] {
        let wl = workload(exp, TraceProfile::facebook(Framework::Spark), bound);
        report.add_table(candidates_table(
            exp,
            format!("{label} (vs LATE)").as_str(),
            &wl,
            &candidates,
        ));
    }
    report
}

fn factor_candidates(framework: Framework) -> Vec<(PolicyKind, &'static str)> {
    // The paper finds the single best factor is the approximation bound; the best pair
    // adds utilisation for Hadoop and estimation accuracy for Spark (§6.3.2).
    let best_two = match framework {
        Framework::Hadoop => FactorSet::best_two_utilization(),
        Framework::Spark => FactorSet::best_two_accuracy(),
    };
    vec![
        (
            PolicyKind::grass_with_factors(FactorSet::best_one()),
            "Best-1",
        ),
        (PolicyKind::grass_with_factors(best_two), "Best-2"),
        (PolicyKind::grass(), "GRASS"),
    ]
}

/// Figure 13: the value of the three learning factors for deadline-bound jobs.
pub fn fig13(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig13");
    for framework in [Framework::Hadoop, Framework::Spark] {
        let wl = workload(
            exp,
            TraceProfile::facebook(framework),
            BoundSpec::paper_deadlines(),
        );
        report.add_table(candidates_table(
            exp,
            format!(
                "Figure 13 ({}): learning factors, deadline-bound (vs LATE)",
                framework.label()
            )
            .as_str(),
            &wl,
            &factor_candidates(framework),
        ));
    }
    report
}

/// Figure 14: the value of the three learning factors for error-bound jobs.
pub fn fig14(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig14");
    for framework in [Framework::Hadoop, Framework::Spark] {
        let wl = workload(
            exp,
            TraceProfile::facebook(framework),
            BoundSpec::paper_errors(),
        );
        report.add_table(candidates_table(
            exp,
            format!(
                "Figure 14 ({}): learning factors, error-bound (vs LATE)",
                framework.label()
            )
            .as_str(),
            &wl,
            &factor_candidates(framework),
        ));
    }
    report
}

/// The ξ values swept in Figure 15 (percent).
pub const XI_SWEEP: [f64; 5] = [0.0, 5.0, 10.0, 15.0, 20.0];

/// Figure 15: sensitivity of GRASS's gains to the perturbation probability ξ, for the
/// Facebook and Bing workloads, deadline- and error-bound.
pub fn fig15(exp: &ExpConfig) -> Report {
    let mut report = Report::new("fig15");
    for (bound, label) in [
        (
            BoundSpec::paper_deadlines(),
            "Figure 15a: deadline-bound jobs",
        ),
        (BoundSpec::paper_errors(), "Figure 15b: error-bound jobs"),
    ] {
        let mut table = Table::new(
            format!("{label}: improvement vs LATE for different ξ"),
            vec!["xi (%)", "Facebook", "Bing"],
        );
        for xi in XI_SWEEP {
            let mut cells = Vec::new();
            for profile in [
                TraceProfile::facebook(Framework::Spark),
                TraceProfile::bing(Framework::Spark),
            ] {
                let source = GeneratedWorkload::new(workload(exp, profile, bound));
                let candidate = PolicyKind::grass_with_xi(xi / 100.0);
                let cmp = compare(exp, &source, &PolicyKind::Late, &candidate);
                cells.push(improvement_cell(cmp.overall));
            }
            table.push_row(format!("{xi:.0}"), cells);
        }
        report.add_table(table);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switching_and_factor_candidate_sets() {
        assert_eq!(switching_candidates().len(), 3);
        let hadoop = factor_candidates(Framework::Hadoop);
        let spark = factor_candidates(Framework::Spark);
        assert_eq!(hadoop.len(), 3);
        assert_eq!(hadoop[0].1, "Best-1");
        assert_eq!(spark[2].1, "GRASS");
        // Best-2 differs between the frameworks.
        assert_ne!(format!("{:?}", hadoop[1].0), format!("{:?}", spark[1].0));
    }

    #[test]
    fn xi_sweep_matches_paper_range() {
        assert_eq!(XI_SWEEP.len(), 5);
        assert_eq!(XI_SWEEP[0], 0.0);
        assert_eq!(XI_SWEEP[4], 20.0);
        assert!(XI_SWEEP.contains(&15.0));
    }

    #[test]
    fn fig12_quick_run_has_strawman_and_grass_columns() {
        let mut exp = ExpConfig::tiny();
        exp.jobs_per_run = 8;
        let report = fig12(&exp);
        assert_eq!(report.tables.len(), 2);
        for t in &report.tables {
            assert!(t.columns.contains(&"Strawman".to_string()));
            assert!(t.columns.contains(&"GRASS".to_string()));
            assert!(t.value("overall", "GRASS").is_some());
        }
    }
}
