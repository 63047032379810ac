//! The metric vocabulary (mirrored by `../BENCHMARK.json`; a test holds the
//! two together) and the result of one run: printed by name with its unit,
//! summarised as the contract's final JSON line, and kept under `out/`.

use std::path::Path;

use crate::json::Json;

/// One metric: its name, unit and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}
const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees. Measured with tracing off. The thirteenth
/// end-to-end figure of the design, `failed_ops_share`, is carried by the
/// `attempted`/`failed` fields of every result (it is 0 on a correct run, and
/// a gated metric may never be 0) and repeated among the per-layer metrics.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    higher("ingest_tps", "tx/s"),
    lower("block_commit_p50_us", "us"),
    lower("block_commit_p99_us", "us"),
    lower("storage_bytes_per_version", "B"),
    lower("get_p50_us", "us"),
    lower("get_p99_us", "us"),
    lower("prov_p50_us", "us"),
    higher("read_ops_per_s", "ops/s"),
    lower("proof_bytes_per_prov", "B"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers, layer = crate name. Reported by the traced run only. The
/// first two are end-to-end figures that cannot be gated: `failed_ops_share`
/// (see above) and `prov_p99_us`, demoted for noise — the tail of a
/// provenance query is a steep ramp between latency modes and did not repeat
/// within a quarter of its median on three of the five workloads.
pub const PER_LAYER: &[Def] = &[
    lower("failed_ops_share", "share"),
    lower("prov_p99_us", "us"),
    // protocol
    lower("protocol.encode_req_ns", "ns"),
    lower("protocol.encode_resp_us", "us"),
    lower("protocol.decode_resp_us", "us"),
    lower("protocol.proof_decode_us", "us"),
    lower("protocol.verify_us", "us"),
    lower("protocol.wire_overhead_us", "us"),
    lower("protocol.resp_bytes_per_get", "B"),
    lower("protocol.resp_bytes_per_prov", "B"),
    // server
    lower("server.snapshot_pin_ns", "ns"),
    lower("server.shared_get_us", "us"),
    lower("server.shared_prov_us", "us"),
    lower("server.apply_block_us", "us"),
    lower("server.publish_overhead_us", "us"),
    higher("server.requests_served", "count"),
    lower("server.requests_shed", "count"),
    lower("server.requests_timed_out", "count"),
    lower("server.reads_blocked_on_writer", "count"),
    higher("server.snapshots_published", "count"),
    higher("server.snapshots_retired", "count"),
    // core
    lower("core.snapshot_get_us", "us"),
    lower("core.snapshot_prov_us", "us"),
    lower("core.put_batch_us", "us"),
    lower("core.finalize_noflush_us", "us"),
    lower("core.finalize_flush_us", "us"),
    lower("core.flushes", "count"),
    lower("core.merges", "count"),
    lower("core.write_amp", "ratio"),
    lower("core.pages_written", "count"),
    lower("core.run_build_ns_per_entry", "ns"),
    lower("core.merge_ns_per_entry", "ns"),
    lower("core.runs_searched_per_get", "count"),
    higher("core.bloom_skips_per_get", "count"),
    lower("core.pages_read_per_get", "count"),
    lower("core.pages_read_per_prov", "count"),
    lower("core.merkle_pages_per_prov", "count"),
    lower("core.proof_bloom_share", "share"),
    lower("core.reopen_ms", "ms"),
    higher("core.retired_runs_deleted", "count"),
    // storage
    lower("storage.wal_append_us", "us"),
    lower("storage.wal_fsyncs_per_block", "count"),
    lower("storage.wal_bytes_per_user_byte", "ratio"),
    higher("storage.cache_hit_rate.value", "share"),
    higher("storage.cache_hit_rate.index", "share"),
    higher("storage.cache_hit_rate.merkle", "share"),
    lower("storage.page_read_hit_ns", "ns"),
    lower("storage.page_read_miss_us", "us"),
    higher("storage.data_bytes_share", "share"),
    lower("storage.index_bytes_share", "share"),
    // bloom
    lower("bloom.contains_ns", "ns"),
    lower("bloom.insert_ns", "ns"),
    lower("bloom.digest_us", "us"),
    lower("bloom.filter_bytes", "B"),
    // learned
    lower("learned.train_ns_per_key", "ns"),
    lower("learned.lookup_ns", "ns"),
    lower("learned.pages_per_lookup", "count"),
    // mht
    lower("mht.build_ns_per_leaf", "ns"),
    lower("mht.range_proof_us", "us"),
    lower("mht.compute_root_us", "us"),
    lower("mht.proof_bytes", "B"),
    // mbtree
    lower("mbtree.insert_ns", "ns"),
    lower("mbtree.root_hash_us", "us"),
    lower("mbtree.get_latest_ns", "ns"),
    lower("mbtree.range_with_proof_us", "us"),
    // hash
    higher("hash.sha256_mb_per_s", "MB/s"),
    lower("hash.entry_ns", "ns"),
    lower("hash.pair_ns", "ns"),
    // loadgen: the benchmark itself
    lower("loadgen.gen_ns_per_op", "ns"),
    lower("loadgen.late_share", "share"),
    lower("loadgen.backlog_max", "count"),
    higher("loadgen.max_rate_within_limit", "1/s"),
    lower("loadgen.get_p99_us.low", "us"),
    lower("loadgen.get_p99_us.high", "us"),
    lower("loadgen.workload_digest", "hash48"),
    // trace
    lower("trace.overhead_share", "share"),
    lower("trace.remainder_share.get", "share"),
    lower("trace.remainder_share.prov", "share"),
    lower("trace.remainder_share.block", "share"),
];

/// The outcome of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts, dataset sizes and diagnostics that are not metrics.
    pub notes: Json,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Json::obj(),
        }
    }

    fn defs(&self) -> &'static [Def] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records a metric of this run's vocabulary (a name outside it is a bug
    /// in the benchmark and stops the run).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.defs().iter().any(|d| d.name == name),
            "`{name}` is not a {} metric",
            if self.traced {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// Counts operations into the run's failure accounting.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn metrics_json(&self) -> Json {
        let mut metrics = Json::obj();
        for def in self.defs() {
            let value = self
                .get(def.name)
                .unwrap_or_else(|| panic!("run finished without measuring `{}`", def.name));
            metrics.insert(
                def.name,
                Json::obj().set("value", value).set("unit", def.unit),
            );
        }
        metrics
    }

    /// The contract's last line of standard output.
    pub fn final_line(&self) -> String {
        Json::obj()
            .set("correct", self.failed == 0)
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", self.metrics_json())
            .to_line()
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        println!(
            "# {} ({})",
            self.workload,
            if self.traced {
                "traced pass: per-layer metrics"
            } else {
                "untraced pass: end-to-end metrics"
            }
        );
        for def in self.defs() {
            if let Some(value) = self.get(def.name) {
                println!("{:<36} {:>16.4} {}", def.name, value, def.unit);
            }
        }
        println!(
            "{:<36} {:>16} of {} attempted",
            "failed operations", self.failed, self.attempted
        );
    }

    /// Merges this pass into `<out>/<workload>[.<label>].json`: the untraced
    /// pass owns `end_to_end`, the traced pass `per_layer`, and a file from
    /// another seed, scale or run length is replaced, not mixed into.
    pub fn write(&self, out: &Path, label: Option<&str>, env: &Json) -> std::io::Result<()> {
        std::fs::create_dir_all(out)?;
        let stem = match label {
            Some(label) => format!("{}.{label}", self.workload),
            None => self.workload.to_string(),
        };
        let path = out.join(format!("{stem}.json"));
        let same_run = |old: &Json| {
            ["seed", "scale", "seconds", "commit"]
                .iter()
                .all(|k| old.get("env").and_then(|e| e.get(k)) == env.get(k))
        };
        let mut doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .filter(same_run)
            .unwrap_or_else(Json::obj);
        let section = if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        doc.insert("workload", self.workload);
        doc.insert("env", env.clone());
        doc.insert(
            section,
            Json::obj()
                .set("attempted", self.attempted)
                .set("failed", self.failed)
                .set(
                    "failed_ops_share",
                    self.failed as f64 / self.attempted.max(1) as f64,
                )
                .set("metrics", self.metrics_json())
                .set("notes", self.notes.clone()),
        );
        // This benchmark measures; it claims nothing. Kept last.
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "claim");
        }
        doc.insert("claim", Json::Null);
        std::fs::write(path, doc.to_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` at the repo root is what the driver reads; the lists
    /// above are what the program reports. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(listed)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            let listed: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(&str, &str, &str)> =
                defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
            assert_eq!(listed, ours, "`{key}` differs from the program's list");
        }
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no `workloads` list");
        };
        let listed: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let mut report = Report::new("serve-get-cold", false);
        for (i, def) in END_TO_END.iter().enumerate() {
            report.set(def.name, 1.5 + i as f64);
        }
        report.count(1000, 0);
        let line = Json::parse(&report.final_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), END_TO_END.len());
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
