//! Trace exports: JSONL (lossless, byte-reproducible, re-auditable) and
//! Chrome `trace_event` JSON (drag into `chrome://tracing` or Perfetto).
//!
//! The JSONL form is the interchange format. The first line is a header
//! carrying the audit ground truth (makespan, CPU count, per-thread
//! bucket totals) so a file can be re-audited standalone by
//! `trace_dump`; each following line is one event. Every float is stored
//! as a `u64` IEEE-754 bit pattern, so a parsed file audits *bit for
//! bit* like the in-memory recording. Keys are emitted in sorted order
//! and integers as plain decimals, so equal recordings serialise to
//! identical bytes — the golden-trace determinism tests diff files
//! directly.
//!
//! The JSONL writer ([`write_jsonl`]) and reader ([`parse_jsonl`]) are
//! the one place where each direction names every event kind. The Chrome
//! form is the human-facing view, derived from each record's JSONL
//! fields rather than from the event kinds: charges become duration
//! (`"X"`) slices on one lane per CPU, everything else becomes instant
//! events on one lane per thread (confidence updates on a scheduler
//! lane keyed by static transaction). It is lossy by design — floats
//! are printed as floats there.
//!
//! Both writers stream into any [`Write`], one record at a time, so an
//! export to a file holds no more than the recording it reads.

use crate::json::Json;
use bfgts_scenario::{Platform, Scenario};
use bfgts_trace::{
    AuditInputs, Bucket, ConfKind, DecisionKind, TraceEvent, TraceRec, TraceRecording,
};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Format version stamped into (and required of) the JSONL header.
/// Version 2 added the fault-injection instants (`fault_bloom_corrupt`,
/// `fault_conf_poison`, DESIGN.md §9); version 3 added the optional
/// embedded scenario (`"scenario"`, DESIGN.md §10) so a trace file names
/// the exact run that produced it. Version 3 also carries the sharding
/// instants (`shard_touch`, `cross_shard_commit`, DESIGN.md §11) — a
/// purely additive extension, since unsharded traces never emit them.
/// The open-system instants (`tx_arrival`, `queue_depth`, DESIGN.md §12)
/// are additive in the same way — batch traces never emit them — so the
/// version stays at 3 and every previously written file still parses.
pub const TRACE_FORMAT_VERSION: u64 = 3;

/// Writes a recording plus its audit ground truth as JSONL, one record
/// at a time, then flushes `out`. A given `scenario` is embedded in the
/// header, making the file self-describing.
pub fn write_jsonl(
    out: &mut impl Write,
    recording: &TraceRecording,
    inputs: &AuditInputs,
    scenario: Option<&Scenario>,
) -> io::Result<()> {
    let mut pairs = vec![
        ("type", Json::Str("header".into())),
        ("version", Json::UInt(TRACE_FORMAT_VERSION)),
        ("makespan", Json::UInt(inputs.makespan)),
        ("num_cpus", Json::UInt(inputs.num_cpus as u64)),
        (
            "per_thread",
            Json::Arr(
                inputs
                    .per_thread
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|&c| Json::UInt(c)).collect()))
                    .collect(),
            ),
        ),
        ("events", Json::UInt(recording.events.len() as u64)),
        ("dropped", Json::UInt(recording.dropped)),
    ];
    // Absent-key protocol: only runs under a window-based greedy manager
    // declare a seed, so every pre-I11 trace file serialises unchanged.
    if let Some(seed) = inputs.window_seed {
        pairs.push(("window_seed", Json::UInt(seed)));
    }
    if let Some(scenario) = scenario {
        pairs.push(("scenario", scenario.to_json()));
    }
    writeln!(out, "{}", Json::obj(pairs))?;
    for rec in &recording.events {
        writeln!(out, "{}", rec_to_json(rec))?;
    }
    out.flush()
}

/// [`write_jsonl`] into memory, with no scenario in the header.
pub fn to_jsonl(recording: &TraceRecording, inputs: &AuditInputs) -> String {
    let mut out = Vec::new();
    write_jsonl(&mut out, recording, inputs, None).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("JSON text is UTF-8")
}

/// Parses a JSONL trace back into a recording and its audit inputs.
/// Inverse of [`write_jsonl`]; errors name the offending line. A header
/// scenario, if embedded, is dropped — use [`parse_jsonl_full`] to keep
/// it.
pub fn parse_jsonl(text: &str) -> Result<(TraceRecording, AuditInputs), String> {
    parse_jsonl_full(text).map(|(rec, inputs, _)| (rec, inputs))
}

/// Parses a JSONL trace including the embedded scenario, when the header
/// carries one. Inverse of [`write_jsonl`].
pub fn parse_jsonl_full(
    text: &str,
) -> Result<(TraceRecording, AuditInputs, Option<Scenario>), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty trace file")?;
    let header = Json::parse(first).and_then(|header| header_from_json(&header));
    let (inputs, declared, dropped, scenario) = header.map_err(|e| format!("line 1: {e}"))?;
    // Sized from the lines present, never from the header's claim.
    let mut events = Vec::with_capacity(lines.clone().count());
    for (i, line) in lines {
        let rec = Json::parse(line).and_then(|value| rec_from_json(&value));
        events.push(rec.map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    if events.len() as u64 != declared {
        return Err(format!(
            "header declares {declared} events but file has {}",
            events.len()
        ));
    }
    Ok((TraceRecording { events, dropped }, inputs, scenario))
}

/// Decodes a JSONL header: the audit inputs, the declared event and
/// dropped counts, and the embedded scenario, if any.
fn header_from_json(header: &Json) -> Result<(AuditInputs, u64, u64, Option<Scenario>), String> {
    header.read("header", |f| {
        if f.opt::<&str>("type")? != Some("header") {
            return Err("not a trace header".into());
        }
        let version: u64 = f.req("version")?;
        if version != TRACE_FORMAT_VERSION {
            return Err(format!(
                "unsupported trace format version {version} (expected {TRACE_FORMAT_VERSION})"
            ));
        }
        let num_cpus = f.req("num_cpus")?;
        // The audit allocates per CPU, so the header may not ask for more
        // CPUs than any platform has.
        if num_cpus > Platform::MAX_CPUS {
            return Err(format!(
                "header field 'num_cpus' is {num_cpus}, above the maximum {}",
                Platform::MAX_CPUS
            ));
        }
        let inputs = AuditInputs {
            makespan: f.req("makespan")?,
            num_cpus,
            per_thread: f.req("per_thread")?,
            window_seed: f.opt("window_seed")?,
        };
        let (declared, dropped) = (f.req("events")?, f.req("dropped")?);
        let scenario = f.opt("scenario")?.map(Scenario::from_json).transpose();
        let scenario = scenario.map_err(|e| format!("embedded scenario: {e}"))?;
        Ok((inputs, declared, dropped, scenario))
    })
}

fn rec_to_json(rec: &TraceRec) -> Json {
    let mut pairs = event_fields(&rec.ev);
    pairs.extend([
        ("seq", Json::UInt(rec.seq)),
        ("at", Json::UInt(rec.at)),
        ("ev", Json::Str(rec.ev.name().into())),
    ]);
    Json::obj(pairs)
}

/// The JSONL fields of one event, beside its record's `seq`, `at` and
/// `ev`: what [`write_chrome`] derives each Chrome event from.
fn event_fields(ev: &TraceEvent) -> Vec<(&'static str, Json)> {
    let u = |x: u32| Json::UInt(u64::from(x));
    match *ev {
        TraceEvent::Charge {
            cpu,
            thread,
            bucket,
            cycles,
        } => vec![
            ("cpu", u(cpu)),
            ("thread", u(thread)),
            ("bucket", Json::Str(bucket.label().into())),
            ("cycles", Json::UInt(cycles)),
        ],
        TraceEvent::Refile {
            thread,
            from,
            to,
            requested,
            moved,
        } => vec![
            ("thread", u(thread)),
            ("from", Json::Str(from.label().into())),
            ("to", Json::Str(to.label().into())),
            ("requested", Json::UInt(requested)),
            ("moved", Json::UInt(moved)),
        ],
        TraceEvent::ContextSwitch { cpu, thread, cost } => vec![
            ("cpu", u(cpu)),
            ("thread", u(thread)),
            ("cost", Json::UInt(cost)),
        ],
        TraceEvent::TxBegin {
            thread,
            stx,
            retries,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("retries", u(retries)),
        ],
        TraceEvent::TxConflict {
            thread,
            stx,
            enemy_thread,
            enemy_stx,
            stalled,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("enemy_thread", u(enemy_thread)),
            ("enemy_stx", u(enemy_stx)),
            ("stalled", Json::Bool(stalled)),
        ],
        TraceEvent::TxStall { thread, stx } => vec![("thread", u(thread)), ("stx", u(stx))],
        TraceEvent::TxSuspend {
            thread,
            stx,
            target_thread,
            target_stx,
            yielding,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("target_thread", u(target_thread)),
            ("target_stx", u(target_stx)),
            ("yielding", Json::Bool(yielding)),
        ],
        TraceEvent::TxAbort {
            thread,
            stx,
            undo_lines,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("undo_lines", u(undo_lines)),
        ],
        TraceEvent::TxCommit {
            thread,
            stx,
            retries,
            rw_lines,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("retries", u(retries)),
            ("rw_lines", u(rw_lines)),
        ],
        TraceEvent::SchedDecision {
            thread,
            stx,
            kind,
            target_thread,
            target_stx,
            cost,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("kind", Json::Str(kind.label().into())),
            ("target_thread", u(target_thread)),
            ("target_stx", u(target_stx)),
            ("cost", Json::UInt(cost)),
        ],
        TraceEvent::ConfUpdate {
            kind,
            a_stx,
            b_stx,
            sim_a_bits,
            sim_b_bits,
            param_bits,
            applied_bits,
        } => vec![
            ("kind", Json::Str(kind.label().into())),
            ("a_stx", u(a_stx)),
            ("b_stx", u(b_stx)),
            ("sim_a_bits", Json::UInt(sim_a_bits)),
            ("sim_b_bits", Json::UInt(sim_b_bits)),
            ("param_bits", Json::UInt(param_bits)),
            ("applied_bits", Json::UInt(applied_bits)),
        ],
        TraceEvent::BloomSample {
            thread,
            stx,
            raw_bits,
            clamped_bits,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("raw_bits", Json::UInt(raw_bits)),
            ("clamped_bits", Json::UInt(clamped_bits)),
        ],
        TraceEvent::ShardTouch { thread, stx, shard } => {
            vec![("thread", u(thread)), ("stx", u(stx)), ("shard", u(shard))]
        }
        TraceEvent::CrossShardCommit {
            thread,
            stx,
            shards,
            cost,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("shards", u(shards)),
            ("cost", Json::UInt(cost)),
        ],
        TraceEvent::FaultBloomCorrupt { thread, stx, bits } => {
            vec![("thread", u(thread)), ("stx", u(stx)), ("bits", u(bits))]
        }
        TraceEvent::FalsePositiveConflict {
            thread,
            stx,
            enemy_thread,
            enemy_stx,
            true_conflicts,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("enemy_thread", u(enemy_thread)),
            ("enemy_stx", u(enemy_stx)),
            ("true_conflicts", u(true_conflicts)),
        ],
        TraceEvent::CapacityAbort {
            thread,
            stx,
            tracked,
            capacity,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("tracked", u(tracked)),
            ("capacity", u(capacity)),
        ],
        TraceEvent::FaultConfPoison {
            thread,
            saturate,
            entries,
        } => vec![
            ("thread", u(thread)),
            ("saturate", Json::Bool(saturate)),
            ("entries", Json::UInt(entries)),
        ],
        TraceEvent::TxArrival {
            thread,
            stx,
            arrival,
        } => vec![
            ("thread", u(thread)),
            ("stx", u(stx)),
            ("arrival", Json::UInt(arrival)),
        ],
        TraceEvent::QueueDepth { thread, depth } => {
            vec![("thread", u(thread)), ("depth", Json::UInt(depth))]
        }
        TraceEvent::WindowAdvance {
            thread,
            window,
            priority,
        } => vec![
            ("thread", u(thread)),
            ("window", Json::UInt(window)),
            ("priority", Json::UInt(priority)),
        ],
    }
}

fn rec_from_json(v: &Json) -> Result<TraceRec, String> {
    v.read("event", |f| {
        let (seq, at) = (f.req("seq")?, f.req("at")?);
        let bucket =
            |label| Bucket::from_label(label).ok_or_else(|| format!("unknown bucket '{label}'"));
        let ev = match f.req::<&str>("ev")? {
            "charge" => TraceEvent::Charge {
                cpu: f.req("cpu")?,
                thread: f.req("thread")?,
                bucket: bucket(f.req("bucket")?)?,
                cycles: f.req("cycles")?,
            },
            "refile" => TraceEvent::Refile {
                thread: f.req("thread")?,
                from: bucket(f.req("from")?)?,
                to: bucket(f.req("to")?)?,
                requested: f.req("requested")?,
                moved: f.req("moved")?,
            },
            "context_switch" => TraceEvent::ContextSwitch {
                cpu: f.req("cpu")?,
                thread: f.req("thread")?,
                cost: f.req("cost")?,
            },
            "tx_begin" => TraceEvent::TxBegin {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                retries: f.req("retries")?,
            },
            "tx_conflict" => TraceEvent::TxConflict {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                enemy_thread: f.req("enemy_thread")?,
                enemy_stx: f.req("enemy_stx")?,
                stalled: f.req("stalled")?,
            },
            "tx_stall" => TraceEvent::TxStall {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
            },
            "tx_suspend" => TraceEvent::TxSuspend {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                target_thread: f.req("target_thread")?,
                target_stx: f.req("target_stx")?,
                yielding: f.req("yielding")?,
            },
            "tx_abort" => TraceEvent::TxAbort {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                undo_lines: f.req("undo_lines")?,
            },
            "tx_commit" => TraceEvent::TxCommit {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                retries: f.req("retries")?,
                rw_lines: f.req("rw_lines")?,
            },
            "sched_decision" => TraceEvent::SchedDecision {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                kind: DecisionKind::from_label(f.req("kind")?).ok_or("unknown decision kind")?,
                target_thread: f.req("target_thread")?,
                target_stx: f.req("target_stx")?,
                cost: f.req("cost")?,
            },
            "conf_update" => TraceEvent::ConfUpdate {
                kind: ConfKind::from_label(f.req("kind")?).ok_or("unknown confidence kind")?,
                a_stx: f.req("a_stx")?,
                b_stx: f.req("b_stx")?,
                sim_a_bits: f.req("sim_a_bits")?,
                sim_b_bits: f.req("sim_b_bits")?,
                param_bits: f.req("param_bits")?,
                applied_bits: f.req("applied_bits")?,
            },
            "bloom_sample" => TraceEvent::BloomSample {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                raw_bits: f.req("raw_bits")?,
                clamped_bits: f.req("clamped_bits")?,
            },
            "shard_touch" => TraceEvent::ShardTouch {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                shard: f.req("shard")?,
            },
            "cross_shard_commit" => TraceEvent::CrossShardCommit {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                shards: f.req("shards")?,
                cost: f.req("cost")?,
            },
            "fault_bloom_corrupt" => TraceEvent::FaultBloomCorrupt {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                bits: f.req("bits")?,
            },
            "false_positive_conflict" => TraceEvent::FalsePositiveConflict {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                enemy_thread: f.req("enemy_thread")?,
                enemy_stx: f.req("enemy_stx")?,
                true_conflicts: f.req("true_conflicts")?,
            },
            "capacity_abort" => TraceEvent::CapacityAbort {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                tracked: f.req("tracked")?,
                capacity: f.req("capacity")?,
            },
            "fault_conf_poison" => TraceEvent::FaultConfPoison {
                thread: f.req("thread")?,
                saturate: f.req("saturate")?,
                entries: f.req("entries")?,
            },
            "tx_arrival" => TraceEvent::TxArrival {
                thread: f.req("thread")?,
                stx: f.req("stx")?,
                arrival: f.req("arrival")?,
            },
            "queue_depth" => TraceEvent::QueueDepth {
                thread: f.req("thread")?,
                depth: f.req("depth")?,
            },
            "window_advance" => TraceEvent::WindowAdvance {
                thread: f.req("thread")?,
                window: f.req("window")?,
                priority: f.req("priority")?,
            },
            other => return Err(format!("unknown event '{other}'")),
        };
        Ok(TraceRec { seq, at, ev })
    })
}

/// Writes a recording in Chrome `trace_event` format, one event at a
/// time, then flushes `out`.
///
/// Each event is derived from its record's JSONL fields, never from its
/// kind:
///
/// * lane: the CPU lane when the record names a `cpu` (charges and
///   context switches), the scheduler lane keyed by `a_stx` for
///   confidence updates, the `thread` lane otherwise;
/// * name: a charge (a record with a `bucket` and `cycles`) is a
///   duration slice named by its bucket. Any other record is an instant
///   named by its event, with its `kind` (`sched:yield`,
///   `conf:wait_justified`), its `fault:` prefix and its `stx` or
///   `window` folded in;
/// * args: every other field, `*_bits` fields printed as floats.
///
/// The document's keys come in the sorted order a [`Json::Obj`] would
/// print them: `displayTimeUnit`, `otherData`, then `traceEvents`.
pub fn write_chrome(
    out: &mut impl Write,
    recording: &TraceRecording,
    inputs: &AuditInputs,
) -> io::Result<()> {
    const PID_CPUS: u64 = 0;
    const PID_THREADS: u64 = 1;
    const PID_SCHED: u64 = 2;
    // The lane keys in precedence order, each with its process.
    const LANES: [(&str, u64); 3] = [
        ("cpu", PID_CPUS),
        ("a_stx", PID_SCHED),
        ("thread", PID_THREADS),
    ];
    let meta = |pid: u64, name: &str| {
        Json::obj([
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(0)),
            ("name", Json::Str("process_name".into())),
            ("args", Json::obj([("name", Json::Str(name.into()))])),
        ])
    };
    let other = Json::obj([
        ("makespan", Json::UInt(inputs.makespan)),
        ("num_cpus", Json::UInt(inputs.num_cpus as u64)),
    ]);
    write!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{other},\"traceEvents\":[{},{},{}",
        meta(PID_CPUS, "cpus"),
        meta(PID_THREADS, "threads"),
        meta(PID_SCHED, "scheduler (by stx)"),
    )?;
    let float = |bits: u64| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            Json::Float(x)
        } else {
            Json::Str(format!("0x{bits:016x}"))
        }
    };
    for rec in &recording.events {
        let mut fields: BTreeMap<&str, Json> = event_fields(&rec.ev).into_iter().collect();
        let (pid, tid) = LANES
            .into_iter()
            .find_map(|(key, pid)| Some((pid, fields.remove(key)?)))
            .expect("every trace event names a cpu, an a_stx or a thread");
        let mut chrome = vec![
            ("pid", Json::UInt(pid)),
            ("tid", tid),
            ("ts", Json::UInt(rec.at)),
        ];
        if let (Some(bucket), Some(cycles)) = (fields.remove("bucket"), fields.remove("cycles")) {
            chrome.extend([
                ("ph", Json::Str("X".into())),
                ("cat", Json::Str("charge".into())),
                ("name", bucket),
                ("dur", cycles),
            ]);
        } else {
            let ev = rec.ev.name();
            let (head, tail) = ev.split_once('_').unwrap_or((ev, ""));
            let mut name = match fields.remove("kind") {
                Some(kind) => format!("{head}:{}", kind.as_str().unwrap_or_default()),
                None if head == "fault" => format!("fault:{tail}"),
                None => ev.to_string(),
            };
            if let Some(stx) = fields.remove("stx") {
                name += &format!(" stx{stx}");
            }
            if let Some(window) = fields.remove("window") {
                name += &format!(" w{window}");
            }
            chrome.extend([
                ("ph", Json::Str("i".into())),
                ("s", Json::Str("t".into())),
                ("name", Json::Str(name)),
            ]);
        }
        let args = fields
            .into_iter()
            .map(
                |(key, value)| match (key.strip_suffix("_bits"), value.as_u64()) {
                    (Some(stem), Some(bits)) => (stem.to_string(), float(bits)),
                    _ => (key.to_string(), value),
                },
            )
            .collect();
        chrome.push(("args", Json::Obj(args)));
        write!(out, ",{}", Json::obj(chrome))?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_trace::NO_TARGET;

    /// One of every event variant, with deliberately awkward values
    /// (`NO_TARGET`, negative floats).
    fn sample_recording() -> (TraceRecording, AuditInputs) {
        let evs = [
            TraceEvent::Charge {
                cpu: 0,
                thread: 1,
                bucket: Bucket::Tx,
                cycles: 40,
            },
            TraceEvent::Refile {
                thread: 1,
                from: Bucket::Tx,
                to: Bucket::Abort,
                requested: 40,
                moved: 40,
            },
            TraceEvent::ContextSwitch {
                cpu: 0,
                thread: 1,
                cost: 12,
            },
            TraceEvent::TxBegin {
                thread: 1,
                stx: 2,
                retries: 0,
            },
            TraceEvent::TxConflict {
                thread: 1,
                stx: 2,
                enemy_thread: 0,
                enemy_stx: NO_TARGET,
                stalled: true,
            },
            TraceEvent::TxStall { thread: 1, stx: 2 },
            TraceEvent::TxSuspend {
                thread: 1,
                stx: 2,
                target_thread: 0,
                target_stx: 3,
                yielding: false,
            },
            TraceEvent::TxAbort {
                thread: 1,
                stx: 2,
                undo_lines: 7,
            },
            TraceEvent::TxCommit {
                thread: 1,
                stx: 2,
                retries: 1,
                rw_lines: 9,
            },
            TraceEvent::SchedDecision {
                thread: 1,
                stx: 2,
                kind: DecisionKind::Yield,
                target_thread: 0,
                target_stx: 3,
                cost: 250,
            },
            TraceEvent::ConfUpdate {
                kind: ConfKind::SuspendDecay,
                a_stx: 2,
                b_stx: 3,
                sim_a_bits: 0.25f64.to_bits(),
                sim_b_bits: 0.75f64.to_bits(),
                param_bits: 0.1f64.to_bits(),
                applied_bits: (-0.05f64).to_bits(),
            },
            TraceEvent::BloomSample {
                thread: 1,
                stx: 2,
                raw_bits: (-0.3f64).to_bits(),
                clamped_bits: 0.0f64.to_bits(),
            },
            TraceEvent::ShardTouch {
                thread: 1,
                stx: 2,
                shard: 5,
            },
            TraceEvent::CrossShardCommit {
                thread: 1,
                stx: 2,
                shards: 2,
                cost: 120,
            },
            TraceEvent::FaultBloomCorrupt {
                thread: 1,
                stx: 2,
                bits: 64,
            },
            TraceEvent::FalsePositiveConflict {
                thread: 1,
                stx: 2,
                enemy_thread: 0,
                enemy_stx: NO_TARGET,
                true_conflicts: 0,
            },
            TraceEvent::CapacityAbort {
                thread: 1,
                stx: 2,
                tracked: 9,
                capacity: 8,
            },
            TraceEvent::FaultConfPoison {
                thread: 1,
                saturate: true,
                entries: 16,
            },
            TraceEvent::TxArrival {
                thread: 1,
                stx: 2,
                arrival: 155,
            },
            TraceEvent::QueueDepth {
                thread: 1,
                depth: 3,
            },
            TraceEvent::WindowAdvance {
                thread: 1,
                window: 4,
                priority: bfgts_trace::window_priority(0xB16_B00B5, 1, 4),
            },
        ];
        let events = evs
            .into_iter()
            .enumerate()
            .map(|(i, ev)| TraceRec {
                seq: i as u64,
                at: (i as u64) * 10,
                ev,
            })
            .collect();
        let recording = TraceRecording { events, dropped: 0 };
        let inputs = AuditInputs {
            makespan: 1000,
            num_cpus: 2,
            per_thread: vec![[1, 2, 3, 4, 5], [10, 20, 30, 40, 50]],
            window_seed: Some(0xB16_B00B5),
        };
        (recording, inputs)
    }

    /// The exports of [`sample_recording`], written before the Chrome
    /// view was derived from the JSONL record. Never regenerated: they
    /// pin every byte both exporters write.
    const SAMPLE_JSONL: &str = include_str!("../tests/fixtures/sample_recording.jsonl");
    const SAMPLE_CHROME: &str = include_str!("../tests/fixtures/sample_recording.chrome.json");

    #[test]
    fn jsonl_round_trips_every_variant_exactly() {
        let (recording, inputs) = sample_recording();
        let text = to_jsonl(&recording, &inputs);
        assert_eq!(text, SAMPLE_JSONL);
        let (parsed_rec, parsed_inputs) = parse_jsonl(&text).unwrap();
        assert_eq!(parsed_rec, recording);
        assert_eq!(parsed_inputs, inputs);
        // And serialisation is a fixed point: re-export is byte-identical.
        assert_eq!(to_jsonl(&parsed_rec, &parsed_inputs), text);
    }

    #[test]
    fn jsonl_rejects_corrupt_input() {
        let (recording, inputs) = sample_recording();
        let text = to_jsonl(&recording, &inputs);
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("{\"seq\":0}").is_err(), "missing header");
        let bad_count = text.replace("\"events\":21", "\"events\":22");
        assert!(parse_jsonl(&bad_count).is_err(), "event count mismatch");
        let bad_version = text.replace("\"version\":3", "\"version\":99");
        assert!(parse_jsonl(&bad_version).is_err(), "future version");
        let bad_event = text.replace("\"ev\":\"tx_stall\"", "\"ev\":\"tx_mystery\"");
        assert!(parse_jsonl(&bad_event).is_err(), "unknown event name");
        // A field no read asks for, in the header or in an event, is an
        // error naming it.
        for (from, to, name) in [
            ("\"dropped\"", "\"droped\":0,\"dropped\"", "'droped'"),
            (
                "\"ev\":\"tx_stall\"",
                "\"ev\":\"tx_stall\",\"cpu\":0",
                "'cpu'",
            ),
        ] {
            let err = parse_jsonl(&text.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(name), "{to}: {err}");
        }
        // Header sizes no allocation may trust: an event count no vector
        // can hold, one that would take 64 TiB, and a CPU count that
        // would make the audit allocate 8 TiB.
        for (field, hostile) in [
            ("\"events\":21", "\"events\":18446744073709551615"),
            ("\"events\":21", "\"events\":1099511627776"),
            ("\"num_cpus\":2", "\"num_cpus\":1099511627776"),
        ] {
            let err = parse_jsonl(&text.replace(field, hostile)).unwrap_err();
            let name = field.split('"').nth(1).unwrap();
            assert!(err.contains(name), "{hostile}: {err}");
        }
    }

    #[test]
    fn embedded_scenarios_round_trip_through_the_header() {
        use bfgts_scenario::{ManagerSpec, Platform, WorkloadSpec};
        let (recording, inputs) = sample_recording();
        let mut scenario = Scenario::new(
            WorkloadSpec::Preset {
                name: "Kmeans".into(),
                total_txs: 100,
            },
            ManagerSpec::Serial,
            Platform::small(),
        );
        scenario.trace = bfgts_sim::TraceMode::Full;
        let with_scenario = |recording, inputs, scenario| {
            let mut out = Vec::new();
            write_jsonl(&mut out, recording, inputs, scenario).unwrap();
            String::from_utf8(out).unwrap()
        };
        let text = with_scenario(&recording, &inputs, Some(&scenario));
        let (parsed_rec, parsed_inputs, parsed_scenario) = parse_jsonl_full(&text).unwrap();
        assert_eq!(parsed_rec, recording);
        assert_eq!(parsed_inputs, inputs);
        assert_eq!(parsed_scenario.as_ref(), Some(&scenario));
        // A scenario-free file still parses, reporting no scenario.
        let (_, _, none) = parse_jsonl_full(&to_jsonl(&recording, &inputs)).unwrap();
        assert!(none.is_none());
        // And embedding does not disturb the event stream fixed point.
        assert_eq!(
            with_scenario(&parsed_rec, &parsed_inputs, parsed_scenario.as_ref()),
            text
        );
    }

    #[test]
    fn chrome_export_is_valid_json_with_cpu_slices() {
        let (recording, inputs) = sample_recording();
        let mut out = Vec::new();
        write_chrome(&mut out, &recording, &inputs).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, SAMPLE_CHROME);
        let doc = Json::parse(text.trim_end()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 3 process-name metadata records + one record per event.
        assert_eq!(events.len(), 3 + recording.events.len());
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("charge becomes a duration slice");
        assert_eq!(slice.get("dur").and_then(Json::as_u64), Some(40));
        assert_eq!(slice.get("name").and_then(Json::as_str), Some("tx"));
    }
}
