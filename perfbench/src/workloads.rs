//! The two workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use crate::daemon::Daemon;
use crate::designs::{self, config, reference, report_key, GridPoint, Slot};
use crate::fillcli::{self, ReportKey};
use crate::load::{self, ClientModel, Intent, Mix, PhaseResult};
use crate::metrics::{median, quantile, Report, Slice, Tally};
use crate::trace::{self, EditCounts, SolverCounts, Tracer};
use pilfill_core::methods::IlpTwo;
use pilfill_core::{run_flow_streamed, FlowConfig, FlowContext, WorkerPool};
use pilfill_layout::Design;
use pilfill_serve::protocol::{encode_outcome_blob, FillStatus};
use std::collections::BTreeMap;
use std::path::PathBuf;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Tail limit of the capacity ladder, ms.
const TAIL_LIMIT_MS: f64 = 50.0;

/// How one run is invoked.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `fill_paper` or `serve_eco`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `pilfill` binary.
    pub pilfill: PathBuf,
    /// Scratch directory for design files, sockets and the span dump.
    pub work: PathBuf,
}

/// Client threads and connections: at most 2, and at most the host's
/// logical CPUs.
pub fn conns() -> usize {
    nproc().min(2)
}

/// The host's logical CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves no metric to report.
pub fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("create {}: {e}", opts.work.display()))?;
    match (opts.workload.as_str(), opts.trace) {
        ("fill_paper", false) => fill_paper(opts),
        ("serve_eco", false) => serve(opts),
        ("fill_paper" | "serve_eco", true) => traced(opts),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

// ------------------------------------------------------------ fill_paper

/// The grid written to disk with its references.
struct FillSetup {
    points: Vec<GridPoint>,
    files: Vec<PathBuf>,
    refs: Vec<ReportKey>,
    /// Mean ILP-II total delay impact per fill over the pass, fs.
    delay_fs: f64,
}

fn fill_setup(opts: &Opts) -> Result<FillSetup, String> {
    let grid = designs::grid_points(opts.seed);
    let made = designs::par_map(&grid, nproc(), |i, (big, seed, p)| -> Result<_, String> {
        let d = designs::preset(*big, *seed, format!("grid-{}-{i}", opts.seed));
        let path = opts.work.join(format!("grid-{i}.pfl"));
        std::fs::write(&path, d.to_text()).map_err(|e| format!("write {}: {e}", path.display()))?;
        let outcome = reference(&d, &config(p.window, p.r))?;
        Ok((path, report_key(&outcome), outcome.impact.total_delay))
    });
    let mut s = FillSetup {
        points: Vec::new(),
        files: Vec::new(),
        refs: Vec::new(),
        delay_fs: 0.0,
    };
    for (m, (_, _, p)) in made.into_iter().zip(grid) {
        let (path, key, delay) = m?;
        s.points.push(p);
        s.files.push(path);
        s.refs.push(key);
        s.delay_fs += delay * 1e15;
    }
    s.delay_fs /= s.points.len() as f64;
    Ok(s)
}

/// Cells of the paper grid; grid points cycle through them in order.
const CELLS: usize = 12;

/// One checked CLI fill of grid point `i`; `Some(ms)` on success.
fn cli_fill(opts: &Opts, s: &FillSetup, i: usize, tally: &mut Tally) -> Option<f64> {
    tally.attempted += 1;
    let checked = fillcli::run(&opts.pilfill, &s.files[i], &s.points[i])
        .and_then(|(wall, out)| fillcli::check_report(&out, &s.refs[i]).map(|()| wall));
    match checked {
        Ok(wall) => Some(wall.as_secs_f64() * 1e3),
        Err(why) => {
            tally.fail(why, true);
            None
        }
    }
}

fn fill_paper(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = fill_setup(opts)?;
        // Priming: one checked fill warms the binary into the page cache.
        if cli_fill(opts, &s, 0, &mut report.tally).is_none() {
            return Err(format!("priming fill failed: {:?}", report.tally.reasons));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let s = setup.expect("at least one set-up");

    // One closed-loop client cycling the grid; every full pass is a slice.
    let pass = s.points.len();
    let mut lat = Vec::new();
    let mut passes = Vec::new();
    let t = Instant::now();
    let mut pass_start = t;
    let measure = Duration::from_secs_f64(opts.seconds);
    while t.elapsed() < measure {
        let i = lat.len() % pass;
        lat.push(cli_fill(opts, &s, i, &mut report.tally).unwrap_or(f64::INFINITY));
        if lat.len() % pass == 0 {
            let now = Instant::now();
            passes.push(Slice::of(
                &lat[lat.len() - pass..],
                (now - pass_start).as_secs_f64(),
            ));
            pass_start = now;
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    if passes.is_empty() {
        passes.push(Slice::of(&lat, wall_s));
    }
    eprintln!(
        "fill_paper: nproc={} fills={} in {wall_s:.1}s over {} grid points, p99={:.2}ms, failed={} reasons={:?}",
        nproc(),
        lat.len(),
        s.points.len(),
        quantile(&lat, 0.99),
        report.tally.failed,
        report.tally.reasons
    );
    let cells: Vec<String> = (0..CELLS)
        .map(|c| {
            let v: Vec<f64> = lat.iter().skip(c).step_by(CELLS).copied().collect();
            format!("{:.1}", median(&v))
        })
        .collect();
    eprintln!(
        "fill_paper: median ms per grid cell (T1 then T2; W 32000 then 20000; r 2, 4, 8): [{}]",
        cells.join(", ")
    );
    log_slices("fill_paper", "grid pass", &passes);
    let best = Slice::best(&passes);
    report.set("setup_s", median(&setup_s));
    report.set("fills_per_s", best.per_s);
    report.set("p50_ms", best.p50_ms);
    report.set("p90_ms", best.p90_ms);
    report.set(
        "rss_mb",
        fillcli::peak_child_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0),
    );
    report.set("delay_fs", s.delay_fs);
    Ok(report)
}

// ---------------------------------------------------------- serve loads

/// Working-set size of the ECO mix (fits the daemon's 8-entry LRU).
const ECO_WINDOW: usize = 6;

/// Designs the ECO working set drifts through in a run.
const ECO_DESIGNS: usize = 36;

/// Requests between advances of the ECO working set by one design: a
/// full circle through [`ECO_DESIGNS`] takes 1800 requests, several
/// seconds of the closed loop.
const ECO_DRIFT_EVERY: usize = 50;

/// A bound on the closed loop's request rate, for planning its mix.
const ECO_PLAN_RPS: f64 = 1000.0;

/// Connections of the closed loop. With two, both often ask for the same
/// design at once, and the second request builds it cold (the checkout
/// race `serve.cold_extra` counts): about one request in eleven.
const ECO_CONNS: usize = 1;

/// The rate of the traced run's open-loop phase, requests per second.
const ECO_RATE: f64 = 50.0;

/// A served workload's inputs.
struct ServeSetup {
    slots: Vec<Slot>,
    rate: f64,
    rungs: Vec<f64>,
    /// Requests of the untimed warm-up that follows set-up.
    warmup: usize,
}

impl ServeSetup {
    /// The request mix; the working set advances by one slot every
    /// [`ECO_DRIFT_EVERY`] requests and wraps around.
    fn mix(&self, seed: u64) -> Mix {
        let slots = self.slots.len();
        let window = ECO_WINDOW.min(slots);
        let drift = if slots > window { ECO_DRIFT_EVERY } else { 0 };
        Mix::new(designs::rng(seed, 4), slots, window, drift)
    }
}

fn serve_setup(opts: &Opts) -> Result<ServeSetup, String> {
    let slots = designs::t2_slots(opts.seed, 2, ECO_DESIGNS, "eco", (2, 1), nproc())?;
    Ok(ServeSetup {
        slots,
        rate: ECO_RATE,
        rungs: load::rungs(30.0, 24),
        warmup: 400,
    })
}

/// Starts a daemon with default options.
fn start(opts: &Opts) -> Result<Daemon, String> {
    let socket = opts.work.join(format!("{}.sock", opts.workload));
    Daemon::start(&opts.pilfill, &socket).map_err(|e| format!("start daemon: {e}"))
}

/// Primes a daemon with one inline upload of each listed slot's base.
fn prime(
    daemon: &Daemon,
    slots: &[Slot],
    which: &[usize],
    model: &Mutex<ClientModel>,
    tally: &mut Tally,
) -> Result<(), String> {
    let prime: Vec<Intent> = which
        .iter()
        .map(|&slot| Intent {
            slot,
            variant: 0,
            kind: load::Kind::Upload,
        })
        .collect();
    let r = load::sequential(daemon, slots, &prime, model)?;
    tally.merge(&r.tally);
    if r.tally.failed > 0 {
        return Err(format!("priming failed: {:?}", r.tally.reasons));
    }
    Ok(())
}

fn serve(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some((d, _, _, _)) = ready.take() {
            Daemon::shutdown(d).map_err(|e| format!("shutdown: {e}"))?;
        }
        let t = Instant::now();
        let s = serve_setup(opts)?;
        let mut mix = s.mix(opts.seed);
        let model = Mutex::new(ClientModel::new());
        let daemon = start(opts)?;
        let primed = mix.working_set();
        prime(&daemon, &s.slots, &primed, &model, &mut report.tally)?;
        mix.primed(&primed);
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((daemon, s, model, mix));
    }
    let (daemon, s, model, mut mix) = ready.expect("at least one set-up");

    warm_up(&daemon, &s, &mut mix, &model, &mut report.tally)?;
    let planned = (ECO_PLAN_RPS * opts.seconds).ceil() as usize;
    let intents = mix.take(&s.slots, planned);
    let (fixed, rss_kb) = with_rss_samples(&daemon, || {
        load::closed_loop(&daemon, &s.slots, &intents, ECO_CONNS, &model, opts.seconds)
    });
    let fixed = fixed?;
    report.tally.merge(&fixed.tally);
    log_phase(&opts.workload, f64::INFINITY, &fixed);
    if fixed.samples.len() + fixed.tally.failed as usize >= planned {
        return Err(format!(
            "the closed loop used up all {planned} planned requests"
        ));
    }
    if rss_kb.is_empty() {
        return Err("daemon VmRSS unreadable".into());
    }
    eprintln!(
        "{}: daemon VmRSS median {:.1} MB, VmHWM {:.1} MB",
        opts.workload,
        median(&rss_kb) / 1024.0,
        daemon.peak_rss_kb().unwrap_or(0) as f64 / 1024.0
    );
    daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let best = if fixed.tally.failed == 0 {
        let slices = eco_slices(&fixed, s.slots.len());
        log_slices(&opts.workload, "circle", &slices);
        Slice::best(&slices)
    } else {
        // A failed request counts as infinitely late.
        Slice {
            p50_ms: fixed.latency(0.5),
            p90_ms: fixed.latency(0.9),
            per_s: fixed.samples.len() as f64 / fixed.wall_s,
        }
    };
    report.set("setup_s", median(&setup_s));
    report.set("fills_per_s", best.per_s);
    report.set("p50_ms", best.p50_ms);
    report.set("p90_ms", best.p90_ms);
    report.set("rss_mb", median(&rss_kb) / 1024.0);
    report.set("delay_fs", designs::quality_fs(opts.seed, nproc())?);
    eprintln!(
        "{}: nproc={} conns={} counts={:?} failed={} reasons={:?}",
        opts.workload,
        nproc(),
        conns(),
        fixed.counts,
        report.tally.failed,
        report.tally.reasons
    );
    Ok(report)
}

/// The closed loop cut into slices of one full circle of the working
/// set through every slot each, so that every slice asks the same mix
/// of the same designs; the whole phase if no circle completed.
fn eco_slices(r: &PhaseResult, slots: usize) -> Vec<Slice> {
    let circle = slots * ECO_DRIFT_EVERY;
    let mut slices = Vec::new();
    let mut from_s = 0.0;
    for c in r.samples.chunks_exact(circle) {
        let lat: Vec<f64> = c.iter().map(|x| x.latency_ms).collect();
        let to_s = c[c.len() - 1].done_s;
        slices.push(Slice::of(&lat, to_s - from_s));
        from_s = to_s;
    }
    if slices.is_empty() {
        let lat: Vec<f64> = r.samples.iter().map(|x| x.latency_ms).collect();
        slices.push(Slice::of(&lat, r.wall_s));
    }
    slices
}

/// One stderr line with every slice's p50/p90/rate.
fn log_slices(workload: &str, what: &str, slices: &[Slice]) {
    let all: Vec<String> = slices.iter().map(ToString::to_string).collect();
    eprintln!(
        "{workload}: p50 ms/p90 ms/rate per {what}: [{}]; reported: {}",
        all.join(", "),
        Slice::best(slices)
    );
}

/// Runs `load` while sampling the daemon's resident set (`VmRSS`, kB)
/// every 250 ms, and returns its result with the samples. The sampler
/// only reads `/proc`; it sends no load.
fn with_rss_samples<T: Send>(daemon: &Daemon, load: impl FnOnce() -> T + Send) -> (T, Vec<f64>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut kb = Vec::new();
            let mut next = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                if Instant::now() >= next {
                    kb.extend(daemon.rss_kb().map(|v| v as f64));
                    next += Duration::from_millis(250);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            kb
        });
        let out = load();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("RSS sampler panicked"))
    })
}

/// The untimed warm-up after set-up: the workload's mix sent back to back
/// over every connection until the daemon's heap and caches reach their
/// steady state (a fresh daemon's first few hundred cold builds run
/// slower while its allocator arenas grow). Replies are still checked.
fn warm_up(
    daemon: &Daemon,
    s: &ServeSetup,
    mix: &mut Mix,
    model: &Mutex<ClientModel>,
    tally: &mut Tally,
) -> Result<(), String> {
    let intents = mix.take(&s.slots, s.warmup);
    let r = load::open_loop(daemon, &s.slots, &intents, f64::INFINITY, conns(), model)?;
    tally.merge(&r.tally);
    Ok(())
}

/// The capacity ladder: the rate sustained at the highest rung whose
/// tail stays within [`TAIL_LIMIT_MS`] with no failure and no growing
/// lateness, bisected over the rungs in `seconds` of load.
fn capacity(
    daemon: &Daemon,
    s: &ServeSetup,
    mix: &mut Mix,
    model: &Mutex<ClientModel>,
    seconds: f64,
    workload: &str,
    tally: &mut Tally,
) -> Result<f64, String> {
    let probes = (s.rungs.len() as f64).log2().ceil().max(1.0);
    load::ladder(&s.rungs, |rate| {
        let intents = mix.take(
            &s.slots,
            (rate * seconds / probes).round().max(8.0) as usize,
        );
        let r = load::open_loop(daemon, &s.slots, &intents, rate, conns(), model)?;
        tally.merge(&r.tally);
        log_phase(workload, rate, &r);
        let pass = r.tally.failed == 0 && r.latency(0.99) <= TAIL_LIMIT_MS && !r.lateness_grows();
        Ok(pass.then(|| r.samples.len() as f64 / r.wall_s))
    })
}

/// Stderr lines per load phase: rate, tail, generator lateness, and the
/// tail per quarter of the phase (a burst of host noise shows there).
fn log_phase(workload: &str, rate: f64, r: &PhaseResult) {
    let gen: Vec<f64> = r.samples.iter().map(|x| x.gen_late_ms).collect();
    let q = r.samples.len().div_ceil(4).max(1);
    let quarters: Vec<String> = r
        .samples
        .chunks(q)
        .map(|c| {
            let lat: Vec<f64> = c.iter().map(|x| x.latency_ms).collect();
            let misses = c.iter().filter(|x| x.recovered).count();
            format!("{:.1}ms/{misses}", quantile(&lat, 0.99))
        })
        .collect();
    eprintln!(
        "{workload}: rate={rate} achieved={:.1}/s n={} failed={} p99={:.2}ms \
         p99/store-misses by quarter=[{}] gen_lateness_p99={:.3}ms lateness_grows={}",
        r.samples.len() as f64 / r.wall_s,
        r.samples.len(),
        r.tally.failed,
        r.latency(0.99),
        quarters.join(", "),
        quantile(&gen, 0.99),
        r.lateness_grows()
    );
}

// --------------------------------------------------------------- traced

/// Slots of separate probe designs, each with dup-sink and widen edits,
/// so every traced run sees cold, warm and rebuild paths.
fn probe_slots(opts: &Opts) -> Result<Vec<Slot>, String> {
    designs::t2_slots(opts.seed, 6, 2, "probe", (2, 1), nproc())
}

/// The cold fills the traced run replays stage by stage, with their
/// reference blobs: one grid design per cell for fill_paper, six served
/// designs at their config otherwise.
fn replay_fills(
    opts: &Opts,
    served: &[Slot],
) -> Result<Vec<(String, FlowConfig, Vec<u8>)>, String> {
    if opts.workload == "fill_paper" {
        let cells = designs::grid_points(opts.seed)
            .into_iter()
            .take(CELLS)
            .collect::<Vec<_>>();
        designs::par_map(&cells, nproc(), |i, (big, seed, p)| {
            let d = designs::preset(*big, *seed, format!("grid-{}-{i}", opts.seed));
            let cfg = config(p.window, p.r);
            Ok((
                d.to_text(),
                cfg.clone(),
                encode_outcome_blob(&reference(&d, &cfg)?),
            ))
        })
        .into_iter()
        .collect()
    } else {
        served
            .iter()
            .take(6)
            .map(|slot| {
                let v = &slot.variants[0];
                Ok((v.text.clone(), slot.params.to_config()?, v.blob.clone()))
            })
            .collect()
    }
}

/// One in-process replay of every fill and served request.
struct Replay {
    tracer: Tracer,
    wall_s: f64,
    solver: SolverCounts,
    edits: EditCounts,
    mismatches: usize,
    replayed: usize,
}

fn replay(
    on: bool,
    fills: &[(String, FlowConfig, Vec<u8>)],
    slots: &[Slot],
) -> Result<Replay, String> {
    let serial = WorkerPool::new(1);
    let lanes = WorkerPool::new(nproc());
    let mut r = Replay {
        tracer: Tracer::new(on),
        wall_s: 0.0,
        solver: SolverCounts::default(),
        edits: EditCounts::default(),
        mismatches: 0,
        replayed: 0,
    };
    let t = Instant::now();
    for (text, cfg, blob) in fills {
        let outcome = trace::replay_fill(&mut r.tracer, text, cfg, &serial, &mut r.solver)?;
        r.replayed += 1;
        r.mismatches += usize::from(encode_outcome_blob(&outcome) != *blob);
    }
    for slot in slots {
        let same = trace::replay_slot(&mut r.tracer, slot, &lanes, &mut r.edits)?;
        r.replayed += same.len();
        r.mismatches += same.iter().filter(|&&ok| !ok).count();
    }
    r.wall_s = t.elapsed().as_secs_f64();
    Ok(r)
}

/// Median server time per serving path, ms.
fn by_status(r: &PhaseResult) -> BTreeMap<u8, Vec<f64>> {
    let mut m: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
    for s in &r.samples {
        m.entry(status_code(s.status))
            .or_default()
            .push(s.server_ms);
    }
    m
}

fn status_code(s: FillStatus) -> u8 {
    match s {
        FillStatus::Cold => 0,
        FillStatus::Warm => 1,
        FillStatus::RebuildIncr => 2,
        FillStatus::RebuildFull => 3,
    }
}

fn traced(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let probes = probe_slots(opts)?;

    // Daemon side: an unloaded sequential probe of cold, warm and edit
    // requests, then the workload's load at its fixed rate, then the
    // capacity ladder. fill_paper, which has no daemon load of its own,
    // runs the ECO mix on the probe designs at 50 rps.
    let s = if opts.workload == "fill_paper" {
        ServeSetup {
            slots: probes.clone(),
            rate: 50.0,
            rungs: load::rungs(30.0, 24),
            warmup: 200,
        }
    } else {
        serve_setup(opts)?
    };
    let fills = replay_fills(opts, &s.slots)?;
    let n = (s.rate * opts.seconds * 0.4).round() as usize;
    let mut mix = s.mix(opts.seed);
    let daemon = start(opts)?;
    let unloaded = load::sequential(
        &daemon,
        &probes,
        &probe_plan(&probes),
        &Mutex::new(ClientModel::new()),
    )?;
    report.tally.merge(&unloaded.tally);
    let model = Mutex::new(ClientModel::new());
    let primed = mix.working_set();
    prime(&daemon, &s.slots, &primed, &model, &mut report.tally)?;
    mix.primed(&primed);
    warm_up(&daemon, &s, &mut mix, &model, &mut report.tally)?;
    let intents = mix.take(&s.slots, n);
    let loaded = load::open_loop(&daemon, &s.slots, &intents, s.rate, conns(), &model)?;
    report.tally.merge(&loaded.tally);
    log_phase(&opts.workload, s.rate, &loaded);
    let max_rps = capacity(
        &daemon,
        &s,
        &mut mix,
        &model,
        opts.seconds * 0.5,
        &opts.workload,
        &mut report.tally,
    )?;
    report.set("serve.max_rps", max_rps);
    daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let (base, under) = (by_status(&unloaded), by_status(&loaded));
    let served_ms = |codes: &[u8]| -> f64 {
        let pick = |m: &BTreeMap<u8, Vec<f64>>| -> Vec<f64> {
            codes
                .iter()
                .flat_map(|c| m.get(c).cloned().unwrap_or_default())
                .collect()
        };
        let v = pick(&under);
        if v.is_empty() {
            median(&pick(&base))
        } else {
            median(&v)
        }
    };
    report.set("serve.warm_ms", served_ms(&[1]));
    report.set("serve.edit_ms", served_ms(&[2, 3]));
    report.set("serve.cold_ms", served_ms(&[0]));
    let transport: Vec<f64> = loaded
        .samples
        .iter()
        .map(|s| s.rtt_ms - s.server_ms)
        .collect();
    report.set("serve.transport_ms", median(&transport));
    let total = loaded.samples.len().max(1) as f64;
    let (mut contention, mut weight) = (0.0, 0.0);
    for (code, v) in &under {
        if let Some(b) = base.get(code) {
            contention += v.len() as f64 * (median(v) - median(b));
            weight += v.len() as f64;
        }
    }
    report.set(
        "serve.contention_ms",
        if weight > 0.0 {
            contention / weight
        } else {
            0.0
        },
    );
    report.set("serve.busy", loaded.counts.busy as f64);
    let share = |codes: &[u8]| {
        codes
            .iter()
            .map(|c| under.get(c).map_or(0, Vec::len))
            .sum::<usize>() as f64
            / total
    };
    report.set("serve.warm_ratio", share(&[1]));
    report.set("serve.incr_ratio", share(&[2]));
    report.set("serve.full_ratio", share(&[3]));
    report.set("serve.cold_ratio", share(&[0]));
    report.set("serve.cold_extra", loaded.counts.cold_extra as f64);
    report.set("serve.store_miss", loaded.counts.store_miss as f64);
    let gen: Vec<f64> = loaded.samples.iter().map(|s| s.gen_late_ms).collect();
    report.set("serve.lateness_ms", quantile(&gen, 0.99));

    // CLI overhead and 2-lane speed-up on the replayed fills.
    cli_and_lanes(opts, &fills, &mut report)?;

    // The in-process replay: untraced and traced, alternating, twice.
    let mut walls = [Vec::new(), Vec::new()];
    let mut traced_run = None;
    for _ in 0..2 {
        for on in [false, true] {
            let r = replay(on, &fills, &probes)?;
            walls[usize::from(on)].push(r.wall_s);
            report.tally.attempted += r.replayed as u64;
            for _ in 0..r.mismatches {
                report
                    .tally
                    .fail("replayed outcome differs from the untraced one", true);
            }
            if on {
                traced_run = Some(r);
            }
        }
    }
    let r = traced_run.expect("a traced replay ran");
    let t = &r.tracer;
    let fill_ms = |name: &str| median(&t.self_ms(name, &["fill"]));
    report.set("layout.parse_ms", median(&t.self_ms("layout.parse", &[])));
    for (metric, span) in [
        ("core.extract_ms", "core.extract"),
        ("core.scan_ms", "core.scan"),
        ("core.def3_ms", "core.def3"),
        ("density.map_ms", "density.map"),
        ("density.budget_ms", "density.budget"),
        ("core.tile_build_ms", "core.tile_build"),
        ("core.solve_ms", "core.solve"),
        ("core.evaluate_ms", "core.evaluate"),
    ] {
        report.set(metric, fill_ms(span));
    }
    report.set("core.tiles", r.solver.tiles as f64);
    report.set("core.columns", r.solver.columns as f64);
    report.set("solver.pivots", r.solver.pivots as f64);
    report.set("solver.refactors", r.solver.refactors as f64);
    report.set("solver.bb_nodes", r.solver.bb_nodes as f64);
    report.set("core.build_ms", median(&t.self_ms("core.build", &[])));
    report.set("core.assemble_ms", median(&t.self_ms("core.assemble", &[])));
    report.set("core.rebuild_ms", median(&t.self_ms("core.rebuild", &[])));
    report.set("core.dirty_tiles", median(&r.edits.dirty_tiles));
    report.set("core.budget_reused", r.edits.budget_reused as f64);
    report.set("serve.codec_ms", median(&t.self_ms("serve.codec", &[])));
    report.set("serve.sha_ms", median(&t.self_ms("serve.sha", &[])));
    let coverage = t.coverage_pct();
    if coverage < 90.0 {
        report
            .check_failures
            .push(format!("span coverage {coverage:.1}% < 90%"));
    }
    report.set("trace.coverage_pct", coverage);
    let (off, on) = (min(&walls[0]), min(&walls[1]));
    report.set("trace.overhead_pct", 100.0 * (on / off - 1.0));
    let dump = opts.work.join(format!("trace-{}.jsonl", opts.workload));
    t.write_jsonl(&dump)
        .map_err(|e| format!("write {}: {e}", dump.display()))?;
    eprintln!(
        "{}: traced replay of {} requests, {} spans -> {}, coverage {coverage:.1}%, nproc={}",
        opts.workload,
        r.replayed,
        t.spans().len(),
        dump.display(),
        nproc()
    );
    Ok(report)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The unloaded probe: per probe slot a cold upload, a warm repeat, and
/// each edit followed by a warm repeat.
fn probe_plan(slots: &[Slot]) -> Vec<Intent> {
    let mut plan = Vec::new();
    for (slot, s) in slots.iter().enumerate() {
        plan.push(Intent {
            slot,
            variant: 0,
            kind: load::Kind::Upload,
        });
        plan.push(Intent {
            slot,
            variant: 0,
            kind: load::Kind::Repeat,
        });
        for (variant, v) in s.variants.iter().enumerate().skip(1) {
            plan.push(Intent {
                slot,
                variant,
                kind: load::kind_of(v.op),
            });
            plan.push(Intent {
                slot,
                variant,
                kind: load::Kind::Repeat,
            });
        }
    }
    plan
}

/// `cli.overhead_ms` (CLI wall time minus in-process parse + streamed
/// flow on the host's lanes) and `exec.speedup_2` (1-lane build + run
/// over 2-lane streamed flow) on up to 6 of the replayed fills.
fn cli_and_lanes(
    opts: &Opts,
    fills: &[(String, FlowConfig, Vec<u8>)],
    report: &mut Report,
) -> Result<(), String> {
    let lanes = WorkerPool::new(nproc());
    let (one, two) = (WorkerPool::new(1), WorkerPool::new(2));
    let mut overhead = Vec::new();
    let mut speedup = Vec::new();
    let step = (fills.len() / 6).max(1);
    for (k, (text, cfg, _)) in fills.iter().step_by(step).take(6).enumerate() {
        let path = opts.work.join(format!("cli-{k}.pfl"));
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        let point = GridPoint {
            window: cfg.window,
            r: cfg.r,
        };
        let outcome = reference(&Design::from_text(text).map_err(|e| e.to_string())?, cfg)?;
        report.tally.attempted += 1;
        let (wall, out) = fillcli::run(&opts.pilfill, &path, &point)?;
        if let Err(why) = fillcli::check_report(&out, &report_key(&outcome)) {
            report.tally.fail(why, true);
        }
        let t = Instant::now();
        let design = Design::from_text(text).map_err(|e| e.to_string())?;
        let (_, o) = run_flow_streamed(&design, cfg, &IlpTwo, &lanes).map_err(|e| e.to_string())?;
        let inproc = t.elapsed();
        let _ = std::hint::black_box(o);
        overhead.push((wall.as_secs_f64() - inproc.as_secs_f64()) * 1e3);

        let t = Instant::now();
        let ctx = FlowContext::build_pool(&design, cfg, &one).map_err(|e| e.to_string())?;
        let _ = std::hint::black_box(
            ctx.run_pool(cfg, &IlpTwo, &one)
                .map_err(|e| e.to_string())?,
        );
        let serial = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _ = std::hint::black_box(
            run_flow_streamed(&design, cfg, &IlpTwo, &two).map_err(|e| e.to_string())?,
        );
        speedup.push(serial / t.elapsed().as_secs_f64());
    }
    report.set("cli.overhead_ms", median(&overhead));
    report.set("exec.speedup_2", median(&speedup));
    Ok(())
}

/// The benchmark's work directory, relative to the checkout root so
/// that unix socket paths stay short.
pub const WORK_DIR: &str = ".bench_work";
