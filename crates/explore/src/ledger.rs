//! The durable append-only work ledger: a record schema on the
//! [`tecopt::journal`] file protocol, which owns the atomic header,
//! stale-header refusal, torn-tail replay and flushed appends.
//!
//! Format (`tecopt-ledger v1`):
//!
//! ```text
//! tecopt-ledger v1
//! kind explore-candidates
//! fingerprint <fp:016x>
//! total <n>
//! claim <id:016x> <attempt>
//! done <id:016x> pruned
//! done <id:016x> eval <feasible 0|1> <devices> <current> <peak> <power> <evals>
//! quar <id:016x> <attempts> <reason> <partial> <message...>
//! ```
//!
//! Floating-point payloads are bit-exact hex ([`hex_f64`]), so a resumed
//! exploration reproduces the uninterrupted run bit for bit. The header
//! fingerprint binds the file to the exact design-space spec, device
//! parameters, tile powers and settings that produced it.
//!
//! `claim` records are the lease trail: one per admitted evaluation
//! attempt, written *before* the evaluation starts. A claim without a
//! matching `done`/`quar` marks an attempt killed in flight; the attempt
//! count carries across resumes so the retry budget cannot be reset by
//! crashing — and a candidate whose recorded claims already spent the
//! budget without ever settling (every attempt killed the whole process,
//! beyond what panic isolation can contain) is quarantined at resume
//! admission instead of being re-queued forever.

use crate::quarantine::{PartialPrefix, QuarantineReason, QuarantineRecord};
use std::collections::BTreeMap;
use std::path::Path;
use tecopt::journal::{Header, Journal};
use tecopt::supervise::{hex_f64, parse_hex_f64};
use tecopt::OptError;
use tecopt_units::{Amperes, Celsius, Watts};

/// Magic first line of every ledger file; the trailing integer is the
/// format version.
pub const LEDGER_HEADER: &str = "tecopt-ledger v1";

/// Record-kind tag of design-space exploration ledgers.
pub const LEDGER_KIND: &str = "explore-candidates";

/// A completed (terminal, non-quarantine) outcome for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalRecord {
    /// Rejected by the analytical first-cut sizing bound — no solve was
    /// spent on it.
    Pruned {
        /// Deterministic candidate id.
        id: u64,
    },
    /// Fully evaluated (feasible or not).
    Evaluated {
        /// Deterministic candidate id.
        id: u64,
        /// `peak <= theta_limit` at the optimal current.
        feasible: bool,
        /// Devices deployed.
        devices: usize,
        /// Optimal shared supply current.
        current: Amperes,
        /// Peak silicon temperature at that current.
        peak: Celsius,
        /// Total TEC electrical power at that current.
        tec_power: Watts,
        /// Steady-state solves spent by the current search.
        evaluations: usize,
    },
}

impl EvalRecord {
    /// The candidate this record belongs to.
    pub fn id(&self) -> u64 {
        match self {
            EvalRecord::Pruned { id } | EvalRecord::Evaluated { id, .. } => *id,
        }
    }

    fn encode(&self) -> String {
        match self {
            EvalRecord::Pruned { id } => format!("done {id:016x} pruned"),
            EvalRecord::Evaluated {
                id,
                feasible,
                devices,
                current,
                peak,
                tec_power,
                evaluations,
            } => format!(
                "done {id:016x} eval {} {devices} {} {} {} {evaluations}",
                u8::from(*feasible),
                hex_f64(current.value()),
                hex_f64(peak.value()),
                hex_f64(tec_power.value()),
            ),
        }
    }

    /// Decodes the fields after `done `; `None` for a malformed (torn)
    /// line.
    fn decode(rest: &str) -> Option<EvalRecord> {
        let mut it = rest.split_ascii_whitespace();
        let id = parse_hex_u64(it.next()?)?;
        match it.next()? {
            "pruned" => it.next().is_none().then_some(EvalRecord::Pruned { id }),
            "eval" => {
                let feasible = match it.next()? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
                let devices = it.next()?.parse::<usize>().ok()?;
                let current = Amperes(parse_hex_f64(it.next()?)?);
                let peak = Celsius(parse_hex_f64(it.next()?)?);
                let tec_power = Watts(parse_hex_f64(it.next()?)?);
                let evaluations = it.next()?.parse::<usize>().ok()?;
                it.next().is_none().then_some(EvalRecord::Evaluated {
                    id,
                    feasible,
                    devices,
                    current,
                    peak,
                    tec_power,
                    evaluations,
                })
            }
            _ => None,
        }
    }
}

fn encode_quarantine(rec: &QuarantineRecord) -> String {
    let partial = match &rec.partial {
        None => "-".to_string(),
        Some(p) => format!("{}:{}", p.devices, hex_f64(p.peak.value())),
    };
    format!(
        "quar {:016x} {} {} {partial} {}",
        rec.id,
        rec.attempts,
        rec.reason.tag(),
        rec.message
    )
}

fn decode_quarantine(rest: &str) -> Option<QuarantineRecord> {
    let mut it = rest.splitn(5, ' ');
    let id = parse_hex_u64(it.next()?)?;
    let attempts = it.next()?.parse::<u32>().ok()?;
    let reason = QuarantineReason::from_tag(it.next()?)?;
    let partial = match it.next()? {
        "-" => None,
        spec => {
            let (devices, peak) = spec.split_once(':')?;
            Some(PartialPrefix {
                devices: devices.parse::<usize>().ok()?,
                peak: Celsius(parse_hex_f64(peak)?),
            })
        }
    };
    let message = it.next().unwrap_or("").to_string();
    Some(QuarantineRecord {
        id,
        attempts,
        reason,
        message,
        partial,
    })
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

/// Everything a resumed exploration needs to know about prior cycles,
/// rebuilt from the record trail.
#[derive(Debug, Clone, Default)]
pub struct LedgerState {
    /// Terminal non-quarantine outcomes by candidate id.
    pub done: BTreeMap<u64, EvalRecord>,
    /// Blacklisted candidates by id.
    pub quarantined: BTreeMap<u64, QuarantineRecord>,
    /// Highest attempt number claimed per candidate (claims without a
    /// terminal record mark attempts killed in flight).
    pub claims: BTreeMap<u64, u32>,
}

impl LedgerState {
    /// `true` once the candidate has a terminal record (done or
    /// quarantined) and must not be re-evaluated.
    pub fn settled(&self, id: u64) -> bool {
        self.done.contains_key(&id) || self.quarantined.contains_key(&id)
    }

    /// Terminal records of any kind.
    pub fn settled_count(&self) -> usize {
        self.done.len() + self.quarantined.len()
    }

    /// Folds one replayed record line into the state. Unknown tags and
    /// torn lines are skipped, forward compatible with later record kinds.
    fn apply(&mut self, line: &str) {
        if let Some(rest) = line.strip_prefix("claim ") {
            let mut it = rest.split_ascii_whitespace();
            let id = it.next().and_then(parse_hex_u64);
            let attempt = it.next().and_then(|a| a.parse::<u32>().ok());
            if let (Some(id), Some(attempt), None) = (id, attempt, it.next()) {
                let slot = self.claims.entry(id).or_insert(0);
                *slot = (*slot).max(attempt);
            }
        } else if let Some(rec) = line.strip_prefix("done ").and_then(EvalRecord::decode) {
            self.done.insert(rec.id(), rec);
        } else if let Some(rec) = line.strip_prefix("quar ").and_then(decode_quarantine) {
            self.quarantined.insert(rec.id, rec);
        }
    }
}

/// The durable append-only work ledger of one exploration.
#[derive(Debug)]
pub struct Ledger {
    journal: Journal,
}

impl Ledger {
    /// Opens (or atomically creates) the ledger at `path`, bound to the
    /// exploration identity `fp` over `total` candidates, and replays the
    /// existing record trail. Torn or malformed record lines — the tail a
    /// mid-append kill leaves — are skipped; their candidates simply run
    /// again.
    ///
    /// # Errors
    ///
    /// - [`OptError::InvalidParameter`] `"stale ledger ..."` when the
    ///   header does not match `fp`/`total` — resuming under different
    ///   parameters would silently mix explorations;
    /// - [`OptError::InvalidParameter`] `"ledger io ..."` for I/O errors.
    pub fn open(path: &Path, fp: u64, total: usize) -> Result<(Ledger, LedgerState), OptError> {
        let header = Header {
            magic: LEDGER_HEADER,
            kind: LEDGER_KIND,
            fingerprint: fp,
            total,
        };
        let (journal, records) = Journal::open(path, &header)?;
        let mut state = LedgerState::default();
        for line in &records {
            state.apply(line);
        }
        Ok((Ledger { journal }, state))
    }

    /// The ledger file path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Leases one evaluation attempt: appended and flushed *before* the
    /// evaluation starts, so an attempt killed in flight stays visible to
    /// the resume (the retry budget survives crashes).
    ///
    /// # Errors
    ///
    /// Ledger I/O as a typed [`OptError::InvalidParameter`].
    pub fn claim(&self, id: u64, attempt: u32) -> Result<(), OptError> {
        self.journal.append(&format!("claim {id:016x} {attempt}"))
    }

    /// Appends a terminal evaluation record.
    ///
    /// # Errors
    ///
    /// Ledger I/O as a typed [`OptError::InvalidParameter`].
    pub fn record(&self, rec: &EvalRecord) -> Result<(), OptError> {
        self.journal.append(&rec.encode())
    }

    /// Appends a quarantine (blacklist) record.
    ///
    /// # Errors
    ///
    /// Ledger I/O as a typed [`OptError::InvalidParameter`].
    pub fn quarantine(&self, rec: &QuarantineRecord) -> Result<(), OptError> {
        self.journal.append(&encode_quarantine(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tecopt-ledger-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.ledger")
    }

    fn eval_rec(id: u64) -> EvalRecord {
        EvalRecord::Evaluated {
            id,
            feasible: true,
            devices: 3,
            current: Amperes(4.25),
            peak: Celsius(78.5),
            tec_power: Watts(2.125),
            evaluations: 41,
        }
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let path = scratch("roundtrip");
        let (ledger, state) = Ledger::open(&path, 0xabcd, 4).unwrap();
        assert!(state.done.is_empty());
        ledger.claim(7, 1).unwrap();
        ledger.record(&eval_rec(7)).unwrap();
        ledger.record(&EvalRecord::Pruned { id: 9 }).unwrap();
        let quar = QuarantineRecord::new(
            11,
            2,
            QuarantineReason::Panicked,
            "division by zero somewhere",
            Some(PartialPrefix {
                devices: 2,
                peak: Celsius(83.0),
            }),
        );
        ledger.quarantine(&quar).unwrap();
        drop(ledger);

        let (_ledger, state) = Ledger::open(&path, 0xabcd, 4).unwrap();
        assert_eq!(state.done.get(&7), Some(&eval_rec(7)));
        assert_eq!(state.done.get(&9), Some(&EvalRecord::Pruned { id: 9 }));
        assert_eq!(state.quarantined.get(&11), Some(&quar));
        assert_eq!(state.claims.get(&7), Some(&1));
        assert!(state.settled(7) && state.settled(9) && state.settled(11));
        assert!(!state.settled(13));
        assert_eq!(state.settled_count(), 3);
    }

    #[test]
    fn torn_tail_is_skipped_and_the_candidate_reruns() {
        let path = scratch("torn");
        let (ledger, _) = Ledger::open(&path, 1, 4).unwrap();
        ledger.record(&eval_rec(7)).unwrap();
        ledger.record(&eval_rec(8)).unwrap();
        drop(ledger);
        // Tear the last record mid-line, as a kill mid-append would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();

        let (_, state) = Ledger::open(&path, 1, 4).unwrap();
        assert_eq!(state.done.get(&7), Some(&eval_rec(7)));
        assert!(!state.settled(8));
    }

    #[test]
    fn a_claim_appended_after_a_torn_tail_survives_the_next_reopen() {
        let path = scratch("reglue");
        let (ledger, _) = Ledger::open(&path, 1, 4).unwrap();
        ledger.claim(8, 1).unwrap();
        ledger.claim(8, 2).unwrap();
        drop(ledger);
        // A kill mid-append tears the second claim.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 3]).unwrap();

        let (ledger, state) = Ledger::open(&path, 1, 4).unwrap();
        assert_eq!(state.claims.get(&8), Some(&1));
        ledger.claim(8, 2).unwrap();
        drop(ledger);
        // The retry budget must not be reset by the crash.
        let (_, state) = Ledger::open(&path, 1, 4).unwrap();
        assert_eq!(state.claims.get(&8), Some(&2));
    }

    #[test]
    fn ledger_bytes_match_the_v1_format() {
        let path = scratch("golden");
        let (ledger, _) = Ledger::open(&path, 0x0123_4567_89ab_cdef, 4).unwrap();
        ledger.claim(7, 1).unwrap();
        ledger.record(&eval_rec(7)).unwrap();
        ledger.record(&EvalRecord::Pruned { id: 9 }).unwrap();
        let partial = Some(PartialPrefix {
            devices: 2,
            peak: Celsius(83.0),
        });
        let quar = QuarantineRecord::new(
            11,
            2,
            QuarantineReason::Panicked,
            "division by zero",
            partial,
        );
        ledger.quarantine(&quar).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "tecopt-ledger v1\nkind explore-candidates\nfingerprint 0123456789abcdef\ntotal 4\n\
             claim 0000000000000007 1\n\
             done 0000000000000007 eval 1 3 4011000000000000 4053a00000000000 4001000000000000 41\n\
             done 0000000000000009 pruned\n\
             quar 000000000000000b 2 panic 2:4054c00000000000 division by zero\n"
        );
    }

    #[test]
    fn header_mismatch_is_a_typed_stale_error() {
        let path = scratch("stale");
        drop(Ledger::open(&path, 1, 4).unwrap());
        let err = Ledger::open(&path, 2, 4).unwrap_err();
        assert!(matches!(err, OptError::InvalidParameter(ref m) if m.contains("stale ledger")));
        let err = Ledger::open(&path, 1, 5).unwrap_err();
        assert!(matches!(err, OptError::InvalidParameter(ref m) if m.contains("stale ledger")));
    }

    #[test]
    fn claim_attempts_keep_their_maximum_across_cycles() {
        let path = scratch("claims");
        let (ledger, _) = Ledger::open(&path, 1, 4).unwrap();
        ledger.claim(5, 1).unwrap();
        ledger.claim(5, 2).unwrap();
        ledger.claim(6, 1).unwrap();
        drop(ledger);
        let (_, state) = Ledger::open(&path, 1, 4).unwrap();
        assert_eq!(state.claims.get(&5), Some(&2));
        assert_eq!(state.claims.get(&6), Some(&1));
    }

    #[test]
    fn an_orphaned_temp_file_does_not_block_a_fresh_ledger() {
        let path = scratch("orphan");
        // Simulate a kill between temp-file write and rename.
        std::fs::write(tecopt::journal::temp_sibling(&path), "garbage").unwrap();
        let (ledger, state) = Ledger::open(&path, 1, 4).unwrap();
        assert!(state.done.is_empty());
        ledger.record(&eval_rec(1)).unwrap();
        drop(ledger);
        let (_, state) = Ledger::open(&path, 1, 4).unwrap();
        assert!(state.settled(1));
    }
}
