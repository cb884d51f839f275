//! Sample storage and order statistics.
//!
//! Every timing series is kept in a [`Reservoir`]: a fixed-capacity
//! uniform sample (Algorithm R). A run's peak RSS therefore stops
//! growing with how many operations a faster build completes, and
//! quantiles stay unbiased.

use std::collections::BTreeMap;
use std::time::Instant;

/// Samples kept per series.
const CAP: usize = 1 << 15;

/// A fixed-capacity uniform sample of one series.
pub struct Reservoir {
    buf: Vec<f64>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    pub fn new(salt: u64) -> Self {
        Self {
            buf: Vec::new(),
            seen: 0,
            rng: salt ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.buf.len() < CAP {
            self.buf.push(v);
            return;
        }
        // splitmix64: the replacement choice only needs to be uniform.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let j = z % self.seen;
        if let Ok(j) = usize::try_from(j) {
            if j < CAP {
                self.buf[j] = v;
            }
        }
    }

    /// Number of values pushed (not only those kept).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn merge(&mut self, other: &Reservoir) {
        // Weighted merge: replay the other sample scaled to its count.
        if other.buf.is_empty() {
            return;
        }
        let per = other.seen as f64 / other.buf.len() as f64;
        let mut credit = 0.0;
        for &v in &other.buf {
            credit += per;
            while credit >= 1.0 {
                self.push(v);
                credit -= 1.0;
            }
        }
    }

    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile(&self.buf, q)
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// Linear-interpolated quantile (NumPy's default) of an unsorted slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Named series of one thread; merged across threads after a phase.
#[derive(Default)]
pub struct Spans {
    series: BTreeMap<String, Reservoir>,
}

impl Spans {
    pub fn record(&mut self, name: &str, value: f64) {
        if let Some(r) = self.series.get_mut(name) {
            r.push(value);
            return;
        }
        let salt = name
            .bytes()
            .fold(0u64, |h, b| h.rotate_left(5) ^ u64::from(b));
        let mut r = Reservoir::new(salt);
        r.push(value);
        self.series.insert(name.to_string(), r);
    }

    /// Times `f` and records its duration in microseconds under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    pub fn merge(&mut self, other: Spans) {
        for (name, r) in other.series {
            match self.series.get_mut(&name) {
                Some(mine) => mine.merge(&r),
                None => {
                    self.series.insert(name, r);
                }
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<&Reservoir> {
        self.series.get(name)
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Reservoir::median)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Reservoir)> {
        self.series.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn reservoir_keeps_a_uniform_sample_past_capacity() {
        let mut r = Reservoir::new(1);
        for i in 0..(4 * CAP) {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), 4 * CAP as u64);
        let med = r.median().unwrap();
        let true_med = 2.0 * CAP as f64;
        assert!((med - true_med).abs() < 0.02 * true_med, "{med}");
    }
}
