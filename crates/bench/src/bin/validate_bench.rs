//! Validates the committed `BENCH_*.json` reports: every one must parse as
//! JSON and declare a known `schema_version`. Run by CI so a malformed or
//! schema-drifting report fails the build instead of silently rotting.
//!
//! Exit status is non-zero if any report fails; each file's verdict is
//! printed either way.

#![forbid(unsafe_code)]

use cole_bench::{Args, Json};

/// Known `bench` discriminators with the array field each schema requires
/// and the schema versions the validator accepts *for that bench*. Bump a
/// bench's entry alongside its writer — `server` moved to 2 when the sweep
/// gained the under-ingest pass and historical-query columns. Fields that
/// are only ever appended to an object (`workload.hash_backend`, absent from
/// reports written before the SHA-NI kernel) need no bump: nothing here
/// requires them.
const KNOWN_BENCHES: &[(&str, &str, &[u64])] = &[
    ("read_path", "cache_sweep", &[1]),
    ("write_path", "sweep", &[1]),
    ("server", "sweep", &[2]),
    ("chaos", "phases", &[1]),
];

fn validate(text: &str) -> std::result::Result<String, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing numeric schema_version")?;
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string field 'bench'")?;
    let Some((_, rows_field, versions)) = KNOWN_BENCHES.iter().find(|(name, ..)| *name == bench)
    else {
        let names: Vec<&str> = KNOWN_BENCHES.iter().map(|(n, ..)| *n).collect();
        return Err(format!("unknown bench '{bench}' (known: {names:?})"));
    };
    if version.fract() != 0.0 || !versions.contains(&(version as u64)) {
        return Err(format!(
            "unknown schema_version {version} for bench '{bench}' (known: {versions:?})"
        ));
    }
    let rows = doc
        .get(rows_field)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("bench '{bench}' requires an array field '{rows_field}'"))?;
    if rows.is_empty() {
        return Err(format!("'{rows_field}' is empty"));
    }
    Ok(format!(
        "bench={bench} schema_version={} rows={}",
        version as u64,
        rows.len()
    ))
}

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        println!(
            "validate_bench — check committed BENCH_*.json reports\n\
             --dir .    directory scanned (non-recursively) for BENCH_*.json"
        );
        return;
    }
    let dir = args.get_str("dir", ".");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {dir}: {e}"))
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "no BENCH_*.json files found in {dir} — the committed reports are gone"
    );

    let mut failures = 0;
    for path in &entries {
        let name = path.display();
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| validate(&text))
        {
            Ok(verdict) => println!("ok   {name}: {verdict}"),
            Err(reason) => {
                println!("FAIL {name}: {reason}");
                failures += 1;
            }
        }
    }
    assert!(
        failures == 0,
        "{failures} of {} bench report(s) failed validation",
        entries.len()
    );
    println!("validated {} bench report(s)", entries.len());
}
