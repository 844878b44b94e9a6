//! Shared harness code for the paper grid and the oracle sweeps.
//! Everything here checks simulated results; host wall-time claims come
//! from the repository benchmark under `benchmark/`.

use ptm_workloads::Scale;

pub mod adversity;
pub mod json;
pub mod meta;
pub mod paper;
pub mod service;

/// Reads the environment variable `name` through `parse`; `None` when it
/// is unset. Every option of every bench binary enters here.
///
/// # Panics
///
/// Panics, naming the variable and its value, when the value does not
/// parse: a typo must not silently run a different sweep than asked for.
pub fn option<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    match std::env::var(name) {
        Ok(v) => Some(parse(&v).unwrap_or_else(|e| panic!("{name}: {e}"))),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => panic!("{name}: {v:?} is not UTF-8"),
    }
}

/// Parses a scale name, case-insensitively.
pub fn parse_scale(name: &str) -> Result<Scale, String> {
    match name.to_ascii_lowercase().as_str() {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        _ => Err(format!(
            "unknown value {name:?}: expected one of tiny, small, full"
        )),
    }
}

/// Parses a `u64`, decimal or `0x`-hex in either case.
pub fn parse_u64(value: &str) -> Result<u64, String> {
    let lower = value.to_ascii_lowercase();
    let parsed = match lower.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => lower.parse(),
    };
    parsed.map_err(|_| format!("invalid value {value:?}: expected a decimal or 0x-hex u64"))
}

/// The benchmark scale used by the regeneration binaries: `PTM_SCALE`
/// (`tiny`, `small`, `full`, any case), `small` when unset.
pub fn scale_from_env() -> Scale {
    option("PTM_SCALE", parse_scale).unwrap_or(Scale::Small)
}

/// Where a sweep binary writes its report: `PTM_BENCH_OUT`, or `default`
/// in the working directory.
pub fn out_path(default: &str) -> String {
    option("PTM_BENCH_OUT", |v| Ok(v.to_string())).unwrap_or_else(|| default.to_string())
}

/// A named report counter: `(key, value)`.
pub type Counter = (&'static str, u64);

/// Folds per-cell counters into one slice's totals, led by a `cells`
/// count: `worst_*` and `max_*` keys take the maximum, `min_*` keys the
/// minimum, every other key sums.
pub(crate) fn fold_totals(cells: impl Iterator<Item = Vec<Counter>>) -> Vec<Counter> {
    let mut totals = vec![("cells", 0)];
    for counters in cells {
        totals[0].1 += 1;
        for (key, v) in counters {
            let max = key.starts_with("worst_") || key.starts_with("max_");
            match totals.iter_mut().find(|(k, _)| *k == key) {
                Some((_, t)) if max => *t = (*t).max(v),
                Some((_, t)) if key.starts_with("min_") => *t = (*t).min(v),
                Some((_, t)) => *t += v,
                None => totals.push((key, v)),
            }
        }
    }
    totals
}

/// One counter of folded totals, 0 when no cell carried it.
pub fn total(totals: &[(&str, u64)], key: &str) -> u64 {
    totals.iter().find(|(k, _)| *k == key).map_or(0, |t| t.1)
}

/// Writes a sweep report's `totals` object: one member per slice.
pub(crate) fn write_totals(
    o: &mut json::Obj,
    slices: &[&str],
    totals: impl Fn(&str) -> Vec<Counter>,
) {
    o.obj("totals", |t| {
        for slice in slices {
            t.obj(slice, |o| {
                for (key, v) in totals(slice) {
                    o.field(key, v);
                }
            });
        }
    });
}

/// Arithmetic mean, matching the "Average" bar of the paper's figures.
pub fn average(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_known_values() {
        assert_eq!(average(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(average(&[]), 0.0);
    }

    #[test]
    fn parse_scale_is_case_insensitive() {
        assert_eq!(parse_scale("tiny").unwrap(), Scale::Tiny);
        assert_eq!(parse_scale("Small").unwrap(), Scale::Small);
        assert_eq!(parse_scale("FULL").unwrap(), Scale::Full);
    }

    #[test]
    fn parse_scale_rejects_unknown_values() {
        let err = parse_scale("ful").unwrap_err();
        assert!(err.contains("ful"), "{err}");
        assert!(err.contains("tiny, small, full"), "{err}");
    }

    #[test]
    fn parse_u64_takes_decimal_and_hex_and_names_bad_values() {
        assert_eq!(parse_u64("42"), Ok(42));
        assert_eq!(parse_u64("0x2a"), Ok(42));
        assert_eq!(parse_u64("0X2A"), Ok(42));
        for bad in ["abc", "-1", "", "0x"] {
            let err = parse_u64(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
