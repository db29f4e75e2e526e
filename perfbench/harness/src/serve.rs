//! The `serve_mix` workload: one closed-loop client piping a seeded
//! scenario stream into the shipped `bfgts_serve --stdin --audit`, one
//! line at a time, waiting for each summary row before the next line.

use crate::batch::{fp_report, serial_makespans, simulated, Fingerprint};
use crate::clock;
use crate::decor::run_decorated;
use crate::gen;
use crate::ledger::Ledger;
use crate::report::{Gate, Outcome};
use crate::stats;
use bfgts_bench::json::Json;
use bfgts_bench::runner::RunCell;
use bfgts_scenario::Scenario;
use bfgts_sim::TraceMode;
use std::io::{BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest wait for one reply before the server is declared hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

enum Msg {
    /// A `"kind":"summary"` row and when it was read.
    Summary(Instant, String),
    /// The server's per-line status: served (`true`) or an error.
    Status(bool, String),
}

/// A running `bfgts_serve` with its two reader threads.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    rx: Receiver<Msg>,
    readers: Vec<JoinHandle<()>>,
}

fn reader<R: Read + Send + 'static>(
    pipe: R,
    tx: Sender<Msg>,
    classify: fn(&str) -> Option<Msg>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines() {
            let Ok(line) = line else { break };
            if let Some(msg) = classify(&line) {
                if tx.send(msg).is_err() {
                    break;
                }
            }
        }
    })
}

fn stdout_msg(line: &str) -> Option<Msg> {
    line.contains("\"kind\":\"summary\"")
        .then(|| Msg::Summary(clock::now(), line.to_string()))
}

fn stderr_msg(line: &str) -> Option<Msg> {
    if line.starts_with("serve: ") {
        Some(Msg::Status(true, line.to_string()))
    } else if line.starts_with("error: ") {
        Some(Msg::Status(false, line.to_string()))
    } else {
        eprintln!("{line}");
        None
    }
}

impl Server {
    fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--stdin", "--audit"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let (tx, rx) = channel();
        let stdout = child.stdout.take().expect("stdout is piped");
        let stderr = child.stderr.take().expect("stderr is piped");
        let readers = vec![
            reader(stdout, tx.clone(), stdout_msg),
            reader(stderr, tx, stderr_msg),
        ];
        Ok(Self {
            stdin: child.stdin.take(),
            child,
            rx,
            readers,
        })
    }

    /// Sends one scenario line and waits for its summary row. Returns the
    /// reply time and the row, or `None` for a request the server
    /// refused or failed to audit.
    fn request(&mut self, line: &str) -> Result<(Duration, Option<String>), String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        let sent = clock::now();
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to server: {e}"))?;
        let mut summary: Option<(Instant, String)> = None;
        let mut served = None;
        loop {
            match self.rx.recv_timeout(REPLY_TIMEOUT) {
                Ok(Msg::Summary(at, row)) => summary = Some((at, row)),
                Ok(Msg::Status(ok, text)) => {
                    if !ok {
                        eprintln!("{text}");
                        return Ok((sent.elapsed(), None));
                    }
                    served = Some(());
                }
                Err(RecvTimeoutError::Timeout) => return Err("server reply timed out".into()),
                Err(RecvTimeoutError::Disconnected) => return Err("server exited".into()),
            }
            if let (Some(()), Some((at, row))) = (served, &summary) {
                return Ok((at.saturating_duration_since(sent), Some(row.clone())));
            }
        }
    }

    /// Closes stdin, waits for the server to exit, joins the readers.
    fn close(mut self) -> bool {
        drop(self.stdin.take());
        let ok = self.child.wait().is_ok_and(|s| s.success());
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        ok
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only on an error path that skipped `close`.
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

fn line_of(s: &Scenario) -> String {
    s.to_json().to_string()
}

/// (scenario id, fingerprint) of a summary row.
fn parse_row(row: &str) -> Option<(String, Fingerprint)> {
    let v = Json::parse(row).ok()?;
    let n = |k: &str| v.get(k).and_then(Json::as_u64);
    Some((
        v.get("scenario")?.as_str()?.to_string(),
        (n("makespan")?, n("commits")?, n("aborts")?),
    ))
}

/// Sends every request once; returns the fingerprints and reply times,
/// checking each reply against the request's scenario id and `expect`.
fn pass(
    server: &mut Server,
    lines: &[String],
    ids: &[String],
    expect: Option<&[Fingerprint]>,
    gate: &mut Gate,
) -> Result<(Vec<Fingerprint>, Vec<f64>), String> {
    let mut fps = Vec::with_capacity(lines.len());
    let mut replies = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let (d, row) = server.request(line)?;
        let parsed = row.as_deref().and_then(parse_row);
        let id = &ids[i];
        let got = parsed.as_ref().filter(|(rid, _)| rid == id).map(|p| p.1);
        let ok = match (got, expect) {
            (Some(f), Some(e)) => f == e[i],
            (Some(_), None) => true,
            (None, _) => false,
        };
        gate.check(ok, || format!("request {i} ({id}): reply {got:?}"));
        fps.push(got.unwrap_or_default());
        replies.push(clock::ms(d));
    }
    Ok((fps, replies))
}

/// Runs `serve_mix` against the server binary at `bin`. `started` is
/// when the process started: set-up runs from there to the start of the
/// timed phase.
pub fn run(
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    started: Instant,
) -> (Outcome, Option<Ledger>) {
    let mut out = Outcome::default();
    match run_inner(bin, seed, seconds, traced, started, &mut out) {
        Ok(ledger) => (out, ledger),
        Err(e) => {
            out.gate.check(false, || e);
            (out, None)
        }
    }
}

fn run_inner(
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    started: Instant,
    out: &mut Outcome,
) -> Result<Option<Ledger>, String> {
    let scenarios = gen::serve_mix(seed);
    let lines: Vec<String> = scenarios.iter().map(line_of).collect();
    let ids: Vec<String> = scenarios.iter().map(Scenario::id).collect();
    let mut server = Server::spawn(bin)?;
    // Untimed warm-up pass: the reference every later reply must match.
    let (warm_fp, _) = pass(&mut server, &lines, &ids, None, &mut out.gate)?;
    out.info.push(format!("requests per pass: {}", lines.len()));
    let serial = serial_makespans(&scenarios, &warm_fp, &mut out.gate);
    if traced {
        let ledger = traced_pass(&mut server, &lines, &ids, &warm_fp, &mut out.gate)?;
        if !server.close() {
            out.gate
                .check(false, || "server exited with failure".into());
        }
        out.metrics = ledger.metrics();
        return Ok(Some(ledger));
    }
    let setup = started.elapsed();
    let mut replies = Vec::new();
    let mut commits = 0u64;
    let mut passes = 0u32;
    let phase = clock::now();
    loop {
        let (fps, r) = pass(&mut server, &lines, &ids, Some(&warm_fp), &mut out.gate)?;
        commits += fps.iter().map(|f| f.1).sum::<u64>();
        replies.extend(r);
        passes += 1;
        if phase.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let elapsed = phase.elapsed().as_secs_f64();
    if !server.close() {
        out.gate
            .check(false, || "server exited with failure".into());
    }
    out.info.push(format!(
        "timed phase: {passes} pass(es), {} replies, {elapsed:.3} s",
        replies.len()
    ));
    out.info.push(format!(
        "reply samples {}: {} beyond p90 (ten or more needed: {})",
        replies.len(),
        stats::beyond(replies.len(), 90),
        stats::reportable(replies.len(), 90)
    ));
    let m = &mut out.metrics;
    m.push("setup_s", setup.as_secs_f64(), "s");
    m.push("sim_tx_per_s", commits as f64 / elapsed, "tx/s");
    simulated(&scenarios, &warm_fp, &serial, m);
    m.push(
        "reply_p50_ms",
        stats::nearest_rank(&replies, 50).unwrap_or(0.0),
        "ms",
    );
    m.push(
        "reply_p90_ms",
        stats::nearest_rank(&replies, 90).unwrap_or(0.0),
        "ms",
    );
    Ok(None)
}

fn parse_cell(line: &str) -> Result<RunCell, String> {
    let mut scenarios = bfgts_scenario::scenarios_from_str(line)?;
    let scenario = scenarios.pop().ok_or("empty request")?;
    let cell = RunCell::from_scenario(scenario)?;
    // The server derives the id for every row it writes; so does the
    // scenario layer's share of the ledger.
    let _ = cell.scenario.id();
    Ok(cell)
}

/// The traced run. Each request is served once more and, back to back,
/// run in process undecorated in Full and Off mode (trace-sink cost,
/// overhead base); then comes the decorated pass — parse, Full-mode run,
/// audit — exactly the work the server does.
fn traced_pass(
    server: &mut Server,
    lines: &[String],
    ids: &[String],
    warm_fp: &[Fingerprint],
    gate: &mut Gate,
) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    let mut served = Vec::with_capacity(lines.len());
    let mut full_ms = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        // The served reply right before the in-process runs of the same
        // request, so host drift cancels out of the serve-side residual.
        let one = i..i + 1;
        let (_, reply) = pass(
            server,
            &lines[one.clone()],
            &ids[one.clone()],
            Some(&warm_fp[one]),
            gate,
        )?;
        served.extend(reply);
        let Ok(cell) = parse_cell(line) else {
            gate.check(false, || format!("request {i}: unparsable"));
            full_ms.push(0.0);
            continue;
        };
        let run = |mode| {
            clock::timed(|| catch_unwind(AssertUnwindSafe(|| cell.execute_report(mode))).ok())
        };
        let (full, d_full) = run(TraceMode::Full);
        let (off, d_off) = run(TraceMode::Off);
        let same = full.as_ref().map(fp_report) == Some(warm_fp[i])
            && off.as_ref().map(fp_report) == Some(warm_fp[i]);
        gate.check(same, || format!("request {i}: in-process run diverged"));
        ledger.untraced_run += d_full;
        ledger.sink += d_full.saturating_sub(d_off);
        full_ms.push(clock::ms(d_full));
    }
    let counters = ledger.counters.clone();
    let mut residual = 0.0;
    ledger.start();
    for (i, line) in lines.iter().enumerate() {
        let (cell, d_parse) = ledger.span(Some(i), "parse", || parse_cell(line));
        ledger.parse += d_parse;
        let Ok(cell) = cell else {
            gate.check(false, || format!("request {i}: unparsable"));
            continue;
        };
        let (res, _) = ledger.span(Some(i), "cell", || {
            catch_unwind(AssertUnwindSafe(|| {
                run_decorated(&cell, TraceMode::Full, &counters)
            }))
            .ok()
        });
        let Some((report, times)) = res else {
            gate.check(false, || format!("request {i}: traced run panicked"));
            continue;
        };
        ledger.add_build(Some(i), &times);
        let (audit, d_audit) = ledger.span(Some(i), "audit", || report.audit().is_ok());
        ledger.audit += d_audit;
        gate.check(audit && fp_report(&report) == warm_fp[i], || {
            format!("request {i}: traced run diverged or failed its audit")
        });
        ledger.commits += report.stats.commits();
        ledger.aborts += report.stats.aborts();
        ledger.events += report.sim.trace.events.len() as u64;
        residual += served[i] - clock::ms(d_parse) - full_ms[i] - clock::ms(d_audit);
    }
    ledger.stop();
    ledger.serve_residual_ms = residual;
    Ok(ledger)
}
