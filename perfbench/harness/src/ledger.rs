//! The per-layer ledger of a traced run: coarse spans kept in memory,
//! fine counters from the decorators, and the metrics derived from both.

use crate::clock;
use crate::decor::{BuildTimes, Counters};
use crate::report::Metrics;
use bfgts_bench::json::Json;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One coarse span: a phase of one cell or request.
#[derive(Debug, Clone)]
pub struct Span {
    /// Cell or request index within the pass (`None`: the whole pass).
    pub item: Option<usize>,
    /// Phase name (`parse`, `build`, `run`, `audit`).
    pub name: &'static str,
    /// Start, relative to the traced pass start.
    pub start: Duration,
    /// Length.
    pub dur: Duration,
}

/// Everything one traced pass measured.
#[derive(Default)]
pub struct Ledger {
    /// Fine-boundary counters shared with the decorators.
    pub counters: Rc<Counters>,
    /// Scenario parsing, canonical form, id and `RunCell` construction.
    pub parse: Duration,
    /// Build phases plus `run_into`, summed over cells.
    pub build: BuildTimes,
    /// Trace audit replay (serve_mix only).
    pub audit: Duration,
    /// Trace-sink cost: Full-mode minus Off-mode wall of the same cells,
    /// measured undecorated (serve_mix only). Already inside the traced
    /// run's `sim` and `htm` self time, so it is not summed again.
    pub sink: Duration,
    /// Trace events recorded (serve_mix only).
    pub events: u64,
    /// Commits and aborts of the decorated runs.
    pub commits: u64,
    /// Aborted attempts of the decorated runs.
    pub aborts: u64,
    /// Wall of the whole traced pass.
    pub traced_wall: Duration,
    /// Undecorated wall of the same runs (same trace mode).
    pub untraced_run: Duration,
    /// `run_grid` wall minus summed cell wall, ms (batch workloads).
    pub runner_ms: f64,
    /// Reply minus parse, run and audit, ms (serve_mix).
    pub serve_residual_ms: f64,
    /// Coarse spans in pass order.
    pub spans: Vec<Span>,
    origin: Option<Instant>,
}

impl Ledger {
    /// Starts the traced pass clock.
    pub fn start(&mut self) {
        self.origin = Some(clock::now());
    }

    /// Stops the traced pass clock.
    pub fn stop(&mut self) {
        if let Some(origin) = self.origin {
            self.traced_wall = origin.elapsed();
        }
    }

    /// Times `f` as span `name` of `item`.
    pub fn span<T>(
        &mut self,
        item: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let origin = *self.origin.get_or_insert_with(clock::now);
        let start = origin.elapsed();
        let (out, dur) = clock::timed(f);
        self.spans.push(Span {
            item,
            name,
            start,
            dur,
        });
        (out, dur)
    }

    /// Adds one decorated cell's build phases, and records them as
    /// `build` and `run` spans ending where the last span ended.
    pub fn add_build(&mut self, item: Option<usize>, t: &BuildTimes) {
        let build = t.workloads + t.cm + t.htm + t.sim;
        let end = self
            .spans
            .last()
            .map_or(Duration::ZERO, |s| s.start + s.dur);
        let start = end.saturating_sub(build + t.run);
        self.spans.push(Span {
            item,
            name: "build",
            start,
            dur: build,
        });
        self.spans.push(Span {
            item,
            name: "run",
            start: start + build,
            dur: t.run,
        });
        self.build.workloads += t.workloads;
        self.build.cm += t.cm;
        self.build.htm += t.htm;
        self.build.sim += t.sim;
        self.build.run += t.run;
    }

    /// The spans as JSON lines, one object per span.
    pub fn spans_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mut pairs = vec![
                ("workload", Json::Str(workload.to_string())),
                ("span", Json::Str(s.name.to_string())),
                ("start_us", Json::Float(s.start.as_secs_f64() * 1e6)),
                ("dur_us", Json::Float(s.dur.as_secs_f64() * 1e6)),
            ];
            if let Some(i) = s.item {
                pairs.push(("item", Json::UInt(i as u64)));
            }
            out.push_str(&Json::obj(pairs).to_string());
            out.push('\n');
        }
        out
    }

    /// The per-layer metrics. Self times partition the traced wall:
    /// `scenario + workloads + sim + htm + cm + trace.audit + residual`.
    pub fn metrics(&self) -> Metrics {
        let c = &self.counters;
        let ms = |d: Duration| clock::ms(d);
        let ns_ms = |ns: u64| ns as f64 / 1e6;
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let steps = c.steps.get();
        let step_self_ns = c.step_ns.get().saturating_sub(c.step_child_ns.get());
        // Run self time of the engine: run_into minus every step. Every
        // source call and every hook but the two pre-run ones
        // (`on_run_start`, `window_seed`) happens inside a step.
        let sim_self_ms = ms(self.build.run) - ns_ms(c.step_ns.get());
        let scenario_ms = ms(self.parse);
        let workloads_ms = ms(self.build.workloads) + ns_ms(c.src_ns.get());
        let sim_ms = ms(self.build.sim) + sim_self_ms;
        let htm_ms = ms(self.build.htm) + ns_ms(step_self_ns);
        let cm_ms = ms(self.build.cm) + ns_ms(c.cm_ns.get());
        let audit_ms = ms(self.audit);
        let wall_ms = ms(self.traced_wall);
        let residual_ms = wall_ms - scenario_ms - workloads_ms - sim_ms - htm_ms - cm_ms - audit_ms;
        let share = |x: f64| {
            if wall_ms > 0.0 {
                100.0 * x / wall_ms
            } else {
                0.0
            }
        };
        let attempts = self.commits + self.aborts;
        let mut m = Metrics::default();
        m.push("scenario.parse_ms", scenario_ms, "ms");
        m.push("workloads.build_ms", ms(self.build.workloads), "ms");
        m.push("workloads.calls", c.src_calls.get() as f64, "count");
        m.push(
            "workloads.ns_per_call",
            per(c.src_ns.get() as f64, c.src_calls.get()),
            "ns",
        );
        m.push("workloads.self_ms", workloads_ms, "ms");
        m.push("workloads.share_pct", share(workloads_ms), "%");
        m.push("sim.build_ms", ms(self.build.sim), "ms");
        m.push("sim.steps", steps as f64, "count");
        m.push("sim.self_ms", sim_ms, "ms");
        m.push("sim.ns_per_step", per(sim_self_ms * 1e6, steps), "ns");
        m.push("sim.share_pct", share(sim_ms), "%");
        m.push("htm.build_ms", ms(self.build.htm), "ms");
        m.push("htm.self_ms", htm_ms, "ms");
        m.push("htm.ns_per_step", per(step_self_ns as f64, steps), "ns");
        m.push(
            "htm.steps_per_commit",
            per(steps as f64, self.commits),
            "count",
        );
        m.push(
            "htm.commit_ratio",
            per(self.commits as f64, attempts),
            "ratio",
        );
        m.push("htm.share_pct", share(htm_ms), "%");
        m.push("cm.begin_calls", c.cm_begin.get() as f64, "count");
        m.push("cm.abort_calls", c.cm_abort.get() as f64, "count");
        m.push("cm.commit_calls", c.cm_commit.get() as f64, "count");
        m.push("cm.self_ms", cm_ms, "ms");
        m.push(
            "cm.ns_per_begin",
            per(c.cm_begin_ns.get() as f64, c.cm_begin.get()),
            "ns",
        );
        m.push(
            "cm.begins_per_commit",
            per(c.cm_begin.get() as f64, self.commits),
            "count",
        );
        m.push("cm.share_pct", share(cm_ms), "%");
        m.push("trace.events", self.events as f64, "count");
        m.push("trace.sink_ms", ms(self.sink), "ms");
        m.push("trace.audit_ms", audit_ms, "ms");
        m.push("bench.runner_ms", self.runner_ms, "ms");
        m.push("bench.serve_residual_ms", self.serve_residual_ms, "ms");
        m.push("ledger.traced_wall_ms", wall_ms, "ms");
        m.push("ledger.residual_ms", residual_ms, "ms");
        let untraced = ms(self.untraced_run);
        let traced_runs = ms(self.build.workloads)
            + ms(self.build.cm)
            + ms(self.build.htm)
            + ms(self.build.sim)
            + ms(self.build.run);
        m.push(
            "trace_overhead",
            if untraced > 0.0 {
                traced_runs / untraced
            } else {
                0.0
            },
            "ratio",
        );
        m
    }
}
