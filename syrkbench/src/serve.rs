//! `serve-mix`: an in-process `syrk-server` on `127.0.0.1:0` with the
//! default configuration, driven by two closed-loop clients.
//!
//! Why this workload: it is the only one that goes through `server`
//! (HTTP, JSON, admission), `core.recovery`, the plan cache's miss path
//! and `telemetry` under load. Cheap cached reads run beside
//! compute-heavy runs that hold admission slots and both cores, so a
//! gain for `/plan` that costs `/run` (or the reverse) shows. The loop
//! is closed because its callers are scripts that wait for each answer:
//! each client sends its next request only after the last reply.
//!
//! The mix, in blocks of 20 shuffled requests: 14 `GET /plan` over 16
//! hot keys, 3 `GET /plan` on fresh keys that miss the plan cache, 1
//! `GET /bounds`, 2 `POST /run` with `alg=auto`. Every fourth run
//! carries an injected rank crash and goes through recovery.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use syrk_core::{syrk_lower_bound, AbftChecksums, Plan};
use syrk_dense::{seeded_matrix, syrk_flops};
use syrk_server::json::{self, Json};
use syrk_server::{Server, ServerConfig};
use syrk_telemetry::flight;

use crate::check::{fingerprint, fingerprint_ok, max_abs, verify_c};
use crate::report::{Measured, RunCost, ServeStats};
use crate::spans::measure;
use crate::stats::{median, mix};
use crate::{best_plan, run_plan};

/// Rank budgets of the planning keys. Fixed so that the cost of a query
/// (its candidate count grows with `p`) is the same for every seed.
const KEY_P: [usize; 8] = [16, 24, 32, 48, 64, 96, 128, 192];
/// Hot planning keys.
const HOT_KEYS: usize = 16;
/// `(n1, n2, P)` of the runs: n1·n2 ≤ 2¹⁸ and P ≤ 64, 3–40 ms each on
/// the reference host, 1D, 2D and 3D plans among them.
const RUN_SHAPES: [(usize, usize, usize); 6] = [
    (256, 1024, 64),
    (512, 512, 42),
    (512, 256, 30),
    (384, 384, 56),
    (320, 640, 48),
    (128, 2048, 16),
];
/// Distinct input seeds per run shape.
const INPUTS_PER_SHAPE: usize = 2;
/// Seconds a block of 20 requests takes on the reference host.
const NOMINAL_BLOCK_S: f64 = 0.05;
/// Closed-loop clients (the reference host's core count).
const CLIENTS: usize = 2;
/// Requests per timing segment: five blocks, so every segment carries
/// the same mix.
const SEGMENT: usize = 100;

#[derive(Debug, Clone, Copy)]
enum Req {
    Plan(usize),
    Bounds(usize),
    Run(usize),
}

/// One `/run` request: which input, and the crash it carries.
#[derive(Debug, Clone, Copy)]
struct RunReq {
    shape: usize,
    input: usize,
    /// `(fault seed, rank)`; the rank is placed once the plan is known.
    crash: Option<(u64, usize)>,
}

/// Reference result of one run input, computed in-process.
struct RunRef {
    plan: Plan,
    fingerprint: f64,
    cmax: f64,
    cost: RunCost,
}

/// The seeded request stream and its expected answers.
struct Mix {
    keys: Vec<(usize, usize, usize)>,
    /// The planner's answer for each key, filled in after set-up.
    expect: Vec<Plan>,
    requests: Vec<Req>,
    runs: Vec<RunReq>,
    input_seeds: Vec<u64>,
}

impl Mix {
    fn new(seed: u64, blocks: usize) -> Mix {
        let mut keys = Vec::new();
        for i in 0..HOT_KEYS {
            let h = mix(seed, 100 + i as u64);
            keys.push((
                128 + (h % 3968) as usize,
                64 + ((h >> 32) % 8128) as usize,
                KEY_P[i % 8],
            ));
        }
        let mut requests = Vec::with_capacity(blocks * 20);
        let mut runs = Vec::new();
        let mut fresh = 0usize;
        let mut draw = 0u64;
        let mut next = || {
            draw += 1;
            mix(seed, 1_000_000 + draw)
        };
        for _ in 0..blocks {
            let mut block = Vec::with_capacity(20);
            for _ in 0..14 {
                block.push(Req::Plan((next() % HOT_KEYS as u64) as usize));
            }
            for _ in 0..3 {
                // n2 above every hot key's and unique per fresh key, so
                // each of these misses the plan cache.
                let h = next();
                keys.push((2 + (h % 4094) as usize, 10_000 + fresh, KEY_P[fresh % 8]));
                block.push(Req::Plan(keys.len() - 1));
                fresh += 1;
            }
            block.push(Req::Bounds((next() % HOT_KEYS as u64) as usize));
            for _ in 0..2 {
                let i = runs.len();
                let shape = i % RUN_SHAPES.len();
                let crash = (i % 4 == 3).then(|| (next() % 1000, 0));
                runs.push(RunReq {
                    shape,
                    input: shape * INPUTS_PER_SHAPE + (i / RUN_SHAPES.len()) % INPUTS_PER_SHAPE,
                    crash,
                });
                block.push(Req::Run(i));
            }
            for k in (1..block.len()).rev() {
                block.swap(k, (next() % (k as u64 + 1)) as usize);
            }
            requests.extend(block);
        }
        let input_seeds = (0..RUN_SHAPES.len() * INPUTS_PER_SHAPE)
            .map(|k| mix(seed, 500 + k as u64) % 1_000_000)
            .collect();
        Mix {
            keys,
            expect: Vec::new(),
            requests,
            runs,
            input_seeds,
        }
    }

    fn target(&self, req: Req) -> (&'static str, String, String) {
        match req {
            Req::Plan(k) => {
                let (n1, n2, p) = self.keys[k];
                ("GET", format!("/plan?n1={n1}&n2={n2}&p={p}"), String::new())
            }
            Req::Bounds(k) => {
                let (n1, n2, p) = self.keys[k];
                (
                    "GET",
                    format!("/bounds?n1={n1}&n2={n2}&p={p}"),
                    String::new(),
                )
            }
            Req::Run(i) => {
                let r = self.runs[i];
                let (n1, n2, p) = RUN_SHAPES[r.shape];
                let seed = self.input_seeds[r.input];
                let body = r.crash.map_or(String::new(), |(fseed, rank)| {
                    format!("{{\"faults\": {{\"seed\": {fseed}, \"crash_rank\": {rank}, \"crash_op\": 1}}}}")
                });
                (
                    "POST",
                    format!("/run?n1={n1}&n2={n2}&p={p}&alg=auto&seed={seed}"),
                    body,
                )
            }
        }
    }
}

/// A parsed HTTP reply.
struct Reply {
    status: u16,
    body: String,
    connect_ns: u64,
}

fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<Reply, String> {
    let t = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect_ns = t.elapsed().as_nanos() as u64;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "reply is not UTF-8".to_string())?;
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply {
        status,
        body,
        connect_ns,
    })
}

fn parse_plan(v: &Json) -> Option<Plan> {
    let num = |k: &str| v.get(k).and_then(Json::as_usize);
    match v.get("algorithm")?.as_str()? {
        "1d" => Some(Plan::OneD { p: num("p")? }),
        "2d" => Some(Plan::TwoD { c: num("c")? }),
        "3d" => Some(Plan::ThreeD {
            c: num("c")?,
            p2: num("p2")?,
        }),
        _ => None,
    }
}

/// What a checked reply contributed.
enum Checked {
    Query,
    Run { flops: f64, cost: Option<RunCost> },
}

/// Check one reply against the expected answer.
fn check(mix: &Mix, refs: &[RunRef], req: Req, reply: &Reply) -> Result<Checked, String> {
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body.trim()));
    }
    let doc = json::parse(&reply.body).map_err(|e| format!("bad JSON: {e}"))?;
    match req {
        Req::Plan(k) => {
            let (n1, n2, p) = mix.keys[k];
            let got = doc
                .get("best")
                .and_then(|b| b.get("plan"))
                .and_then(parse_plan);
            let want = mix.expect[k];
            if got != Some(want) {
                return Err(format!("/plan {n1}x{n2} P={p}: got {got:?}, want {want:?}"));
            }
            Ok(Checked::Query)
        }
        Req::Bounds(k) => {
            let (n1, n2, p) = mix.keys[k];
            let got = doc
                .get("syrk")
                .and_then(|s| s.get("communicated"))
                .and_then(Json::as_f64);
            let want = syrk_lower_bound(n1, n2, p).communicated();
            if got.map(f64::to_bits) != Some(want.to_bits()) {
                return Err(format!("/bounds {n1}x{n2} P={p}: got {got:?}, want {want}"));
            }
            Ok(Checked::Query)
        }
        Req::Run(i) => {
            let r = mix.runs[i];
            let (n1, n2, _) = RUN_SHAPES[r.shape];
            let reference = &refs[r.input];
            let sum = doc
                .get("c_checksum")
                .and_then(Json::as_f64)
                .ok_or("/run reply has no c_checksum")?;
            let recovered = match doc.get("recovery") {
                Some(rec) => {
                    if rec.get("recovered").and_then(Json::as_bool) != Some(true) {
                        return Err(format!("/run {n1}x{n2}: recovery did not complete"));
                    }
                    true
                }
                None => false,
            };
            if recovered != r.crash.is_some() {
                return Err(format!(
                    "/run {n1}x{n2}: recovery report present = {recovered}"
                ));
            }
            if !recovered && doc.get("plan").and_then(parse_plan) != Some(reference.plan) {
                return Err(format!(
                    "/run {n1}x{n2}: ran another plan than {:?}",
                    reference.plan
                ));
            }
            if !fingerprint_ok(
                sum,
                reference.fingerprint,
                recovered,
                n1,
                n2,
                reference.cmax,
            ) {
                return Err(format!(
                    "/run {n1}x{n2} (recovered = {recovered}): c_checksum {sum} vs reference {}",
                    reference.fingerprint
                ));
            }
            Ok(Checked::Run {
                flops: syrk_flops(n1, n2) as f64,
                cost: (!recovered).then_some(reference.cost),
            })
        }
    }
}

/// Compute every run input's reference in-process: the planner's choice
/// (enumerated without the shared plan cache), its `C` checked against
/// the input's checksums, and that `C`'s fingerprint.
fn references(mix: &mut Mix, m: &mut Measured) -> Vec<RunRef> {
    mix.expect = mix
        .keys
        .iter()
        .map(|&(n1, n2, p)| best_plan(n1, n2, p))
        .collect();
    let mut refs = Vec::new();
    for (k, &seed) in mix.input_seeds.iter().enumerate() {
        let (n1, n2, p) = RUN_SHAPES[k / INPUTS_PER_SHAPE];
        let plan = best_plan(n1, n2, p);
        m.add_shape(n1, n2, p, plan);
        let a = seeded_matrix::<f64>(n1, n2, seed);
        m.attempted += 1;
        let run = match run_plan(&a, plan) {
            Ok(run) => run,
            Err(e) => {
                m.fail(format!("reference {n1}x{n2} on {plan:?}: {e}"));
                continue;
            }
        };
        let sums = AbftChecksums::new(&a);
        let t = Instant::now();
        if let Err(e) = verify_c(&sums, &run.c) {
            m.fail(format!("reference {n1}x{n2}: {e}"));
        }
        m.verify_ms.push(t.elapsed().as_secs_f64() * 1e3);
        refs.push(RunRef {
            plan,
            fingerprint: fingerprint(&run.c),
            cmax: max_abs(&run.c),
            cost: RunCost::of(&run.cost, n1, n2, plan),
        });
    }
    refs
}

/// Fill in the crash rank of each crash-injected run: a rank of the
/// plan the server will choose.
fn place_crashes(mix: &mut Mix, refs: &[RunRef]) {
    for r in &mut mix.runs {
        if let Some((fseed, _)) = r.crash {
            let ranks = refs[r.input].plan.ranks() as u64;
            r.crash = Some((fseed, (crate::stats::mix(fseed, 77) % ranks) as usize));
        }
    }
}

/// Run the served workload.
pub fn run(seed: u64, seconds: f64, setup_only: bool) -> Measured {
    let mut m = Measured::default();
    let blocks = ((seconds / NOMINAL_BLOCK_S).round() as usize).max(1);
    let mut mix = Mix::new(seed, blocks);

    let t = Instant::now();
    let server = Server::bind_with("127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral port on 127.0.0.1");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let warm: Vec<(Req, Result<Reply, String>)> = [Req::Plan(0), Req::Bounds(0), Req::Run(0)]
        .into_iter()
        .map(|req| {
            let (method, target, body) = mix.target(req);
            (req, http(addr, method, &target, &body))
        })
        .collect();
    m.setup_s = t.elapsed().as_secs_f64();

    let refs = references(&mut mix, &mut m);
    if refs.len() == mix.input_seeds.len() {
        place_crashes(&mut mix, &refs);
        for (req, reply) in &warm {
            m.attempted += 1;
            if let Err(e) = reply
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| check(&mix, &refs, *req, r))
            {
                m.fail(format!("warm-up: {e}"));
            }
        }
        if !setup_only {
            serve(&mut m, &mix, &refs, addr);
        }
    }

    match http(addr, "POST", "/shutdown", "") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => m.fail(format!("/shutdown: status {}", r.status)),
        Err(e) => m.fail(format!("/shutdown: {e}")),
    }
    match handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => m.fail(format!("server stopped with {e}")),
        Err(_) => m.fail("server thread panicked".to_string()),
    }
    m
}

/// The measured phase: the clients drain the request list.
fn serve(m: &mut Measured, mix: &Mix, refs: &[RunRef], addr: SocketAddr) {
    struct Sample {
        idx: usize,
        start_ns: u64,
        req: Req,
        ns: u64,
        connect_ns: u64,
        outcome: Result<Checked, String>,
    }
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(mix.requests.len()));
    let start = flight::now_ns();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(&req) = mix.requests.get(idx) else {
                    break;
                };
                let (method, target, body) = mix.target(req);
                let id = idx as u64;
                let start_ns = flight::now_ns();
                let ((reply, checked, ns), _) = measure("op", id, None, |root| {
                    let (reply, ns) =
                        measure("server", id, root, |_| http(addr, method, &target, &body));
                    let checked = reply
                        .as_ref()
                        .map_err(Clone::clone)
                        .and_then(|r| check(mix, refs, req, r));
                    (reply, checked, ns)
                });
                let connect_ns = reply.as_ref().map_or(0, |r| r.connect_ns);
                samples
                    .lock()
                    .expect("sample list poisoned by a panicking client")
                    .push(Sample {
                        idx,
                        start_ns,
                        req,
                        ns,
                        connect_ns,
                        outcome: checked,
                    });
            });
        }
    });
    m.window = (start, flight::now_ns());
    let samples = samples
        .into_inner()
        .expect("sample list poisoned by a panicking client");

    // The fixed work's time: segments × the median segment's span (first
    // send to last reply), so that a burst of other work on a shared host
    // during a few segments does not swing the whole figure.
    let mut spans = vec![(u64::MAX, 0u64); mix.requests.len().div_ceil(SEGMENT)];
    for s in &samples {
        let seg = &mut spans[s.idx / SEGMENT];
        seg.0 = seg.0.min(s.start_ns);
        seg.1 = seg.1.max(s.start_ns + s.ns);
    }
    let seg_s: Vec<f64> = spans
        .iter()
        .map(|&(a, b)| b.saturating_sub(a) as f64 / 1e9)
        .collect();
    m.wall_s = median(&seg_s) * mix.requests.len() as f64 / SEGMENT as f64;

    let mut st = ServeStats::default();
    for s in samples {
        m.attempted += 1;
        st.requests += 1;
        st.client_ns += s.ns;
        if s.connect_ns > 0 {
            st.connect_us.push(s.connect_ns as f64 / 1e3);
        }
        match s.outcome {
            Err(e) => m.fail(e),
            Ok(Checked::Query) => {
                let us = s.ns as f64 / 1e3;
                m.query_us.push(us);
                match s.req {
                    Req::Plan(_) => st.plan_us.push(us),
                    _ => st.bounds_us.push(us),
                }
            }
            Ok(Checked::Run { flops, cost }) => {
                let ms = s.ns as f64 / 1e6;
                if let Req::Run(i) = s.req {
                    m.run_ms.push((mix.runs[i].shape, ms));
                }
                m.useful_flops += flops;
                match cost {
                    Some(c) => m.costs.push(c),
                    None => st.crash_run_ms.push(ms),
                }
            }
        }
    }
    st.json_parse_us = json_parse_us(mix);
    m.serve = Some(st);
}

/// Median cost of parsing a crash-injected `/run` body with the
/// server's own parser.
fn json_parse_us(mix: &Mix) -> f64 {
    let body = mix
        .runs
        .iter()
        .position(|r| r.crash.is_some())
        .map(|i| mix.target(Req::Run(i)).2)
        .unwrap_or_else(|| "{}".to_string());
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..2000 {
                std::hint::black_box(json::parse(std::hint::black_box(&body)).ok());
            }
            t.elapsed().as_secs_f64() * 1e6 / 2000.0
        })
        .collect();
    median(&batches)
}
