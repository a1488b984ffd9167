//! Spans and counters at the layer boundaries.
//!
//! The reactor wraps every call into a layer's public function in a
//! [`span`]. With tracing off a span is one flag test; with tracing on it
//! records name, start, end, parent and allocation calls, aggregates
//! count / total / self per name, and keeps the raw spans of the first
//! segment of each epoch for `bench/out/trace-<workload>.json`.
//!
//! Two things are measured even untraced, because the end-to-end numbers
//! need them: the time inside kernel-backed `SocketDriver` / `Storage` calls
//! ([`sys_span`], the `T_sys` of the normalisation) and the work counters in
//! [`Meters`].

use crate::alloc;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

macro_rules! span_names {
    ($($variant:ident => $name:literal,)*) => {
        /// Every span the benchmark records; the part before the dot is the
        /// layer (the module the call goes into).
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Sp { $($variant,)* }

        impl Sp {
            pub const ALL: &'static [Sp] = &[$(Sp::$variant,)*];

            pub fn name(self) -> &'static str {
                match self { $(Sp::$variant => $name,)* }
            }
        }
    };
}

span_names! {
    WireEncode => "wire.encode",
    WireDecode => "wire.decode",
    WirePack => "wire.pack",
    WireUnpack => "wire.unpack",
    EngineStart => "engine.on_start",
    EngineSubmit => "engine.submit",
    EngineToken => "engine.on_token",
    EngineData => "engine.on_data",
    EngineCtl => "engine.on_ctl",
    EngineTimer => "engine.on_timer",
    EngineTake => "engine.take_deliveries",
    StoreAppend => "store.append",
    StoreSync => "store.sync",
    StoreSnapshot => "store.snapshot",
    StoreReplay => "store.replay",
    NetSubmit => "net.submit",
    NetComplete => "net.complete",
    BrokerProto => "broker.proto",
    BrokerSubmit => "broker.submit",
    BrokerFlush => "broker.flush",
    BrokerDelivered => "broker.on_delivered",
    BrokerApply => "broker.apply",
    MemSubmit => "reactor.mem_submit",
    MemComplete => "reactor.mem_complete",
    Generator => "reactor.generator",
    Sweep => "reactor.sweep",
}

impl Sp {
    /// The layer a span belongs to: its name up to the dot.
    pub fn layer(self) -> &'static str {
        self.name()
            .split('.')
            .next()
            .expect("span names have a layer")
    }
}

/// Per-name totals of a traced run.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time its child spans cover.
    pub self_ns: u64,
    /// Allocation calls made in the span itself, children excluded.
    pub self_allocs: u64,
}

/// One recorded span, as written to the trace file.
#[derive(Clone, Copy, Debug)]
pub struct Raw {
    pub sp: Sp,
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub epoch: u32,
    /// The op a span was recorded for, where the reactor knows it
    /// (generator submits); `u64::MAX` otherwise.
    pub op: u64,
}

struct Open {
    sp: Sp,
    id: u32,
    start_ns: u64,
    child_ns: u64,
    allocs0: u64,
    child_allocs: u64,
}

#[derive(Default)]
struct Tracer {
    stack: Vec<Open>,
    agg: Vec<Agg>,
    raw: Vec<Raw>,
    /// Raw spans are kept while fewer than this many are held.
    raw_limit: usize,
    next_id: u32,
    epoch: u32,
    op: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        agg: vec![Agg::default(); Sp::ALL.len()],
        op: u64::MAX,
        ..Tracer::default()
    });
}

pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turns span recording on or off. Aggregates accumulate across enabled
/// stretches until [`take_aggregates`].
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Keeps raw spans until `limit` are held in total (0 stops keeping them).
pub fn keep_raw_until(limit: usize) {
    TRACER.with(|t| t.borrow_mut().raw_limit = limit);
}

pub fn raw_len() -> usize {
    TRACER.with(|t| t.borrow().raw.len())
}

pub fn set_epoch(epoch: u32) {
    TRACER.with(|t| t.borrow_mut().epoch = epoch);
}

/// Tags the spans recorded until the next call with an op id.
pub fn set_op(op: u64) {
    if enabled() {
        TRACER.with(|t| t.borrow_mut().op = op);
    }
}

fn enter(sp: Sp) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.next_id += 1;
        let id = t.next_id;
        t.stack.push(Open {
            sp,
            id,
            start_ns: now_ns(),
            child_ns: 0,
            allocs0: alloc::allocs(),
            child_allocs: 0,
        });
    });
}

fn exit() {
    let end_ns = now_ns();
    let allocs1 = alloc::allocs();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let open = t.stack.pop().expect("exit matches an enter");
        let dur = end_ns - open.start_ns;
        let allocs = allocs1 - open.allocs0;
        let a = &mut t.agg[open.sp as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        a.self_allocs += allocs.saturating_sub(open.child_allocs);
        let parent = match t.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.child_allocs += allocs;
                p.id
            }
            None => 0,
        };
        if t.raw.len() < t.raw_limit {
            let (epoch, op) = (t.epoch, t.op);
            t.raw.push(Raw {
                sp: open.sp,
                id: open.id,
                parent,
                start_ns: open.start_ns,
                end_ns,
                epoch,
                op,
            });
        }
    });
}

/// Runs `f` inside a span named `sp` (a plain call when tracing is off).
pub fn span<R>(sp: Sp, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    enter(sp);
    let r = f();
    exit();
    r
}

/// Like [`span`], but always timed: when `kernel` is set the duration is
/// added to [`Meters::sys_ns`], the time the normalisation scales by the
/// system-call reference instead of the user-code reference.
pub fn sys_span<R>(sp: Sp, kernel: bool, f: impl FnOnce() -> R) -> R {
    let tracing = enabled();
    if tracing {
        enter(sp);
    }
    let t0 = now_ns();
    let r = f();
    if kernel {
        METERS.sys_ns.fetch_add(now_ns() - t0, Relaxed);
    }
    if tracing {
        exit();
    }
    r
}

/// Takes the per-name aggregates and raw spans recorded so far.
pub fn take_aggregates() -> (Vec<Agg>, Vec<Raw>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let n = Sp::ALL.len();
        let agg = std::mem::replace(&mut t.agg, vec![Agg::default(); n]);
        (agg, std::mem::take(&mut t.raw))
    })
}

macro_rules! meters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Work counters, bumped by the wrappers in `edge.rs` and by the
        /// reactor. Process-wide atomics because `SocketDriver` and
        /// `Storage` must be `Send`; one thread writes them.
        pub struct Meters { $($(#[$doc])* pub $field: AtomicU64,)* }

        /// A plain copy of [`Meters`] at one instant.
        #[derive(Clone, Copy, Default, Debug)]
        pub struct Snapshot { $(pub $field: u64,)* }

        pub static METERS: Meters = Meters { $($field: AtomicU64::new(0),)* };

        impl Meters {
            pub fn snapshot(&self) -> Snapshot {
                Snapshot { $($field: self.$field.load(Relaxed),)* }
            }
        }

        impl Snapshot {
            /// Counts since `earlier` (maxima are kept, not subtracted).
            pub fn since(&self, earlier: &Snapshot) -> Snapshot {
                Snapshot { $($field: self.$field.wrapping_sub(earlier.$field),)* }
            }
        }
    };
}

meters! {
    /// Nanoseconds inside kernel-backed driver / storage calls (`T_sys`).
    sys_ns,
    /// Bytes group members handed to `SocketDriver::push`.
    wire_bytes,
    /// Datagrams pushed on any `evs_net` socket (members, broker, clients).
    datagrams,
    datagram_bytes,
    net_submits,
    net_completes,
    net_empty_completes,
    /// Frames encoded by group members, and their encoded bytes.
    frames,
    frame_bytes,
    store_appends,
    store_syncs,
    store_bytes,
    store_replay_ns,
    token_visits,
    data_msgs,
    /// Datagrams dropped for exceeding `evs_net::MAX_DATAGRAM` on UDP.
    oversize_frames,
    rebroadcasts,
    sweeps,
    idle_sweeps,
}

/// Adds `n` to one meter.
pub fn count(meter: &AtomicU64, n: u64) {
    meter.fetch_add(n, Relaxed);
}
