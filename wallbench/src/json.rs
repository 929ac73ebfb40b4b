//! Minimal JSON output (the benchmark has no serde) and the order
//! statistics every timing is reported with. They are exact and kept
//! here rather than in `rover_sim::Samples`, so a change to the sim's
//! statistics cannot change how the benchmark reports.

use std::fmt;

/// A JSON value, written in insertion order.
pub enum J {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj() -> J {
        J::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (no-op on other variants).
    pub fn put(&mut self, key: &str, value: J) {
        if let J::Obj(fields) = self {
            fields.push((key.to_string(), value));
        }
    }

    pub fn with(mut self, key: &str, value: J) -> J {
        self.put(key, value);
        self
    }
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Non-finite numbers are not JSON; callers never emit them
            // as metrics, but a diagnostic may be undefined.
            J::Num(v) if !v.is_finite() => write!(f, "null"),
            J::Num(v) => write!(f, "{v}"),
            J::Int(v) => write!(f, "{v}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => write_str(f, s),
            J::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Linear-interpolated quantile of `v` (sorted in place); `None` when
/// there are no samples.
pub fn quantile(v: &mut [f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Summary of one latency series: median, p99, sample count.
pub struct Dist {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Dist {
    pub fn of(mut v: Vec<f64>) -> Dist {
        let n = v.len();
        Dist {
            p50: quantile(&mut v, 0.5).unwrap_or(f64::NAN),
            p99: quantile(&mut v, 0.99).unwrap_or(f64::NAN),
            n,
        }
    }

    pub fn to_json(&self) -> J {
        J::obj()
            .with("p50", J::Num(self.p50))
            .with("p99", J::Num(self.p99))
            .with("samples", J::Int(self.n as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.5), Some(2.5));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn json_escapes_strings() {
        let j = J::obj().with("a\"b", J::Str("x\ny".into()));
        assert_eq!(j.to_string(), "{\"a\\\"b\": \"x\\u000ay\"}");
    }
}
