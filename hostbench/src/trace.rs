//! In-memory spans recorded around calls into the elision crates.
//!
//! Every span carries wall-clock and on-CPU time of its thread at both
//! ends, so a layer's self time splits into busy and waiting. Spans are
//! collected per thread without locking and handed to a shared sink once,
//! when the thread's work ends; they are written out after the run.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (`0` is never used).
    pub id: u64,
    /// Id of the span that caused this one, `0` for a root.
    pub parent: u64,
    /// Layer boundary, e.g. `core.execute`.
    pub name: &'static str,
    /// Operation id shared by the spans of one simulated operation
    /// (`thread << 32 | op index`), `0` outside operations.
    pub op: u64,
    /// Wall-clock nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The recording thread's on-CPU nanoseconds at both ends.
    pub cpu_start_ns: u64,
    pub cpu_end_ns: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn cpu_ns(&self) -> u64 {
        self.cpu_end_ns.saturating_sub(self.cpu_start_ns)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Wall-clock nanoseconds since the trace epoch.
pub fn wall_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this crate builds for) and the
    // clock id is a constant the kernel accepts; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Where finished threads deposit their spans.
pub type Sink = Arc<Mutex<Vec<Span>>>;

/// The spans of one thread, in the order they were opened.
pub struct SpanLog {
    prefix: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        SpanLog { prefix: NEXT.fetch_add(1, Ordering::Relaxed) << 32, spans: Vec::new() }
    }

    /// Open a span; returns its id for [`SpanLog::close`] and as a parent.
    pub fn open(&mut self, name: &'static str, parent: u64, op: u64) -> u64 {
        // Wall outside CPU at both ends, so busy time never exceeds wall.
        let id = self.prefix | (self.spans.len() as u64 + 1);
        let now = wall_ns();
        let cpu = thread_cpu_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns: now,
            end_ns: now,
            cpu_start_ns: cpu,
            cpu_end_ns: cpu,
        });
        id
    }

    /// Close the span `id` returned by [`SpanLog::open`] on this log.
    pub fn close(&mut self, id: u64) {
        let cpu = thread_cpu_ns();
        let now = wall_ns();
        let span = &mut self.spans[(id - self.prefix - 1) as usize];
        span.end_ns = now;
        span.cpu_end_ns = cpu;
    }

    pub fn into_sink(self, sink: &Sink) {
        sink.lock().expect("span sink poisoned by a panicking thread").extend(self.spans);
    }
}

/// Open a span on an optional log; `0` when tracing is off.
pub fn open(log: &mut Option<SpanLog>, name: &'static str, parent: u64, op: u64) -> u64 {
    log.as_mut().map_or(0, |l| l.open(name, parent, op))
}

/// Close a span opened by [`open`].
pub fn close(log: &mut Option<SpanLog>, id: u64) {
    if let Some(l) = log.as_mut() {
        l.close(id);
    }
}

/// Write spans as tab-separated rows, one per span, ordered by start.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\top\tstart_ns\tend_ns\tcpu_start_ns\tcpu_end_ns")?;
    for s in sorted {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns, s.cpu_start_ns, s.cpu_end_ns
        )?;
    }
    out.flush()
}
