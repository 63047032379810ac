//! `cole-benchmark compare <dirA> <dirB>`: one row per (end-to-end metric,
//! workload) with both medians, the ratio *with its base*, the bound, and a
//! verdict. A directory holds any number of result files per workload
//! (`run.sh --label` makes repeated runs); with several, the spread between
//! them is known and a difference inside it is `unresolved`, not `ok`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::report::END_TO_END;
use crate::stats::{spread, Spread};
use crate::workloads::SPECS;

/// The regression bounds, from the `BENCHMARK.json` this binary was built
/// beside: the share of A's median by which B may be worse.
fn bounds() -> BTreeMap<String, f64> {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    metrics
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// `(workload, metric) -> values`, one value per result file in `dir`.
fn load(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("end_to_end").and_then(|s| s.get("metrics")),
        ) else {
            continue;
        };
        for (name, metric) in metrics.fields() {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(values)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of a side is wider than the bound.
    Unresolved,
}

/// B against A for one metric: `regressed` if B's median is worse than A's
/// by more than `bound`; otherwise `unresolved` if either side's own spread
/// exceeds the bound; otherwise `ok`.
pub fn judge(a: Spread, b: Spread, bound: f64, higher_is_better: bool) -> Verdict {
    let worse_by = if higher_is_better {
        (a.median - b.median) / a.median
    } else {
        (b.median - a.median) / a.median
    };
    if a.iqr_share.max(b.iqr_share) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints the table; `Ok(true)` if nothing regressed.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let bounds = bounds();
    println!(
        "{:<26} {:<27} {:>14} {:>14} {:>16} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut clean = true;
    let mut rows = 0;
    for spec in &SPECS {
        for def in END_TO_END {
            let key = (spec.name.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (sa, sb) = (spread(va), spread(vb));
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let verdict = judge(sa, sb, bound, def.better == "higher");
            clean &= verdict != Verdict::Regressed;
            rows += 1;
            println!(
                "{:<26} {:<27} {:>14.4} {:>14.4} {:>10.4} x A {:>6.0}%  {}{}",
                spec.name,
                def.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                if sa.n > 1 || sb.n > 1 {
                    format!(
                        "  (spread A {:.1}% n={}, B {:.1}% n={})",
                        sa.iqr_share * 100.0,
                        sa.n,
                        sb.iqr_share * 100.0,
                        sb.n
                    )
                } else {
                    String::new()
                }
            );
        }
    }
    if rows == 0 {
        return Err("no (workload, metric) pair is present in both directories".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(median: f64, iqr_share: f64) -> Spread {
        Spread {
            median,
            iqr_share,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: 100 -> 109 is inside a 10% bound, 111 is not.
        assert_eq!(
            judge(runs(100.0, 0.01), runs(109.0, 0.01), 0.1, false),
            Verdict::Ok
        );
        assert_eq!(
            judge(runs(100.0, 0.01), runs(111.0, 0.01), 0.1, false),
            Verdict::Regressed
        );
        // An improvement is never a regression.
        assert_eq!(
            judge(runs(100.0, 0.01), runs(50.0, 0.01), 0.1, false),
            Verdict::Ok
        );
        // Higher is better: a drop is the bad direction.
        assert_eq!(
            judge(runs(100.0, 0.01), runs(89.0, 0.01), 0.1, true),
            Verdict::Regressed
        );
        assert_eq!(
            judge(runs(100.0, 0.01), runs(120.0, 0.01), 0.1, true),
            Verdict::Ok
        );
        // A side noisier than the bound resolves nothing, either way.
        assert_eq!(
            judge(runs(100.0, 0.15), runs(101.0, 0.01), 0.1, false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(runs(100.0, 0.01), runs(130.0, 0.15), 0.1, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_contract() {
        let bounds = bounds();
        for def in END_TO_END {
            let bound = bounds[def.name];
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", def.name);
        }
    }
}
