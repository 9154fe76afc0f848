//! The correctness gate: every run's deterministic outputs are compared
//! with the values pinned for its seed in `pins.txt`. For a seed with
//! no pin the first run of the process becomes the reference, so every
//! later run must still reproduce it byte for byte.

use crate::workload::Workload;
use std::fmt;

/// The pinned outputs, one line per (workload, seed); see the header of
/// the file for the format and `--pin` for how to regenerate it.
const PINS: &str = include_str!("../pins.txt");

/// FNV-1a 64 over a dump.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The deterministic outputs of one run: equal for equal seeds, at every
/// shard count, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Scheduler events processed.
    pub events: u64,
    /// Datagrams forwarded by gateways.
    pub forwarded: u64,
    /// Flows that succeeded.
    pub completed: u64,
    /// FNV-1a 64 of the metrics, series and flight dumps.
    pub digests: [u64; 3],
}

const DUMPS: [&str; 3] = ["metrics", "series", "flight"];

impl Outcome {
    /// The outcome as one `pins.txt` line.
    pub fn pin_line(&self, workload: Workload, seed: u64) -> String {
        let [m, s, f] = self.digests;
        format!(
            "{} {seed} {} {} {} {m:016x} {s:016x} {f:016x}",
            workload.name(),
            self.events,
            self.forwarded,
            self.completed
        )
    }

    /// The fields in which `self` differs from `expected`, as text.
    fn mismatches(&self, expected: &Outcome) -> Vec<String> {
        let mut out = Vec::new();
        let counts = [
            ("events", self.events, expected.events),
            ("forwarded", self.forwarded, expected.forwarded),
            ("completed", self.completed, expected.completed),
        ];
        for (name, got, want) in counts {
            if got != want {
                out.push(format!("{name} {got} != {want}"));
            }
        }
        for (i, name) in DUMPS.iter().enumerate() {
            if self.digests[i] != expected.digests[i] {
                out.push(format!(
                    "{name} digest {:016x} != {:016x}",
                    self.digests[i], expected.digests[i]
                ));
            }
        }
        out
    }
}

/// Parse one `pins.txt` line.
fn parse_pin(line: &str) -> Option<(String, u64, Outcome)> {
    let f: Vec<&str> = line.split_whitespace().collect();
    if f.len() != 8 {
        return None;
    }
    let hex = |s: &str| u64::from_str_radix(s, 16).ok();
    Some((
        f[0].to_string(),
        f[1].parse().ok()?,
        Outcome {
            events: f[2].parse().ok()?,
            forwarded: f[3].parse().ok()?,
            completed: f[4].parse().ok()?,
            digests: [hex(f[5])?, hex(f[6])?, hex(f[7])?],
        },
    ))
}

/// Every pin in `text`; a malformed line is a bug in the file.
fn pins(text: &str) -> impl Iterator<Item = (String, u64, Outcome)> + '_ {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| parse_pin(l).unwrap_or_else(|| panic!("malformed pin line: {l}")))
}

/// The pinned outcome of `workload` at `seed`, if any.
pub fn pinned(workload: Workload, seed: u64) -> Option<Outcome> {
    pins(PINS)
        .find(|(name, s, _)| name == workload.name() && *s == seed)
        .map(|(_, _, outcome)| outcome)
}

/// A mismatch between a run and its reference.
#[derive(Debug)]
pub struct Mismatch {
    /// Whether the reference came from `pins.txt`.
    pub pinned: bool,
    /// One entry per differing field.
    pub fields: Vec<String>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = if self.pinned { "pinned" } else { "first-run" };
        write!(f, "{what} outcome mismatch: {}", self.fields.join(", "))
    }
}

/// Checks runs of one (workload, seed) against a reference.
pub struct Gate {
    reference: Option<Outcome>,
    pinned: bool,
}

impl Gate {
    /// A gate for `workload` at `seed`, using the pin when there is one.
    pub fn new(workload: Workload, seed: u64) -> Gate {
        Gate::with_reference(pinned(workload, seed))
    }

    /// A gate against an explicit reference; `None` adopts the first
    /// outcome checked.
    pub fn with_reference(reference: Option<Outcome>) -> Gate {
        Gate {
            pinned: reference.is_some(),
            reference,
        }
    }

    /// Whether the reference is a pin.
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// Compare `got` with the reference.
    pub fn check(&mut self, got: &Outcome) -> Result<(), Mismatch> {
        let reference = *self.reference.get_or_insert(*got);
        let fields = got.mismatches(&reference);
        if fields.is_empty() {
            Ok(())
        } else {
            Err(Mismatch {
                pinned: self.pinned,
                fields,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            events: 1_903_071,
            forwarded: 1_533_736,
            completed: 2560,
            digests: [
                0x0123_4567_89ab_cdef,
                0xfedc_ba98_7654_3210,
                0x0f0f_0f0f_0f0f_0f0f,
            ],
        }
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn pin_lines_round_trip() {
        let line = sample().pin_line(Workload::TorusRip, 42);
        let (name, seed, outcome) = parse_pin(&line).expect("parses");
        assert_eq!((name.as_str(), seed, outcome), ("torus-rip", 42, sample()));
    }

    #[test]
    fn every_pin_parses_and_is_unique() {
        let mut keys: Vec<(String, u64)> = pins(PINS).map(|(n, s, _)| (n, s)).collect();
        let total = keys.len();
        assert!(total > 0, "pins.txt holds no pins");
        assert!(keys.iter().all(|(n, _)| Workload::from_name(n).is_some()));
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), total, "a (workload, seed) is pinned twice");
    }

    #[test]
    fn a_perturbed_pin_is_caught() {
        let (name, seed, pin) = pins(PINS).next().expect("at least one pin");
        let workload = Workload::from_name(&name).expect("known workload");
        assert_eq!(pinned(workload, seed), Some(pin));
        // The real outputs for this seed reproduce the pin...
        let mut gate = Gate::new(workload, seed);
        assert!(gate.is_pinned());
        assert!(gate.check(&pin).is_ok());
        // ...and a gate holding a pin that is off by one bit in any
        // field rejects them, naming the field.
        let mut perturbed = [pin; 6];
        perturbed[0].events ^= 1;
        perturbed[1].forwarded ^= 1;
        perturbed[2].completed ^= 1;
        for (i, p) in perturbed[3..].iter_mut().enumerate() {
            p.digests[i] ^= 1 << 17;
        }
        let names = [
            "events",
            "forwarded",
            "completed",
            "metrics",
            "series",
            "flight",
        ];
        for (bad, name) in perturbed.iter().zip(names) {
            let err = Gate::with_reference(Some(*bad))
                .check(&pin)
                .expect_err("caught");
            assert!(err.pinned);
            assert_eq!(err.fields.len(), 1, "{err}");
            assert!(err.fields[0].starts_with(name), "{err}");
        }
    }

    #[test]
    fn an_unpinned_seed_holds_later_runs_to_the_first() {
        let mut gate = Gate::with_reference(None);
        assert!(!gate.is_pinned());
        assert!(gate.check(&sample()).is_ok());
        assert!(gate.check(&sample()).is_ok());
        let mut drifted = sample();
        drifted.digests[1] ^= 1;
        let err = gate.check(&drifted).expect_err("caught");
        assert!(!err.pinned);
        assert!(err.to_string().contains("series digest"), "{err}");
    }
}
