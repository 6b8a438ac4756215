//! The load loops: one request stream driven into a store directly
//! (`StoreApi::call`) or through a `ServeClient` with a bounded window of
//! submissions in flight, each in a plain and a span-recording form.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use tempimpd::{Pending, ServeClient};
use temporal_importance::protocol::{StoreApi, VerbKind};

use crate::spans::{SpanId, Spans};
use crate::stream::{Stream, Tally};

/// Submissions a closed-loop client keeps in flight: deep enough that
/// cross-thread wake-ups are amortised over many requests, bounded so the
/// loop stays closed.
pub const WINDOW: usize = 256;
/// One request in this many is individually timed in plain loops: often
/// enough for tens of thousands of samples per window, rarely enough that
/// neither the clock reads nor the samples' memory show in the result.
pub const SAMPLE_EVERY: u64 = 32;

/// When a load loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After issuing this many requests.
    Ops(u64),
    /// At the first timed request that ends at or after this instant.
    Time(Instant),
}

/// Span names of one layer's `call`, indexed by [`VerbKind::code`].
pub type Layer = [&'static str; 6];

pub const CORE_UNIT: Layer = [
    "core.unit.put",
    "core.unit.get",
    "core.unit.advise",
    "core.unit.density",
    "core.unit.stats",
    "core.unit.health",
];
pub const SERVE_ENGINE: Layer = [
    "serve.engine.put",
    "serve.engine.get",
    "serve.engine.advise",
    "serve.engine.density",
    "serve.engine.stats",
    "serve.engine.health",
];
pub const DURABLE_UNIT: Layer = [
    "durable.unit.put",
    "durable.unit.get",
    "durable.unit.advise",
    "durable.unit.density",
    "durable.unit.stats",
    "durable.unit.health",
];

/// Drives `store` directly. Returns the requests issued and the wall
/// time taken; every [`SAMPLE_EVERY`]-th call's latency goes to `latency`.
pub fn direct<S: StoreApi>(
    store: &mut S,
    stream: &mut Stream,
    tally: &mut Tally,
    until: Until,
    mut latency: Option<&mut Vec<u64>>,
) -> (u64, Duration) {
    let started = Instant::now();
    let mut ops = 0u64;
    loop {
        let (at, request) = stream.next();
        let verb = VerbKind::of(&request);
        let timed = ops % SAMPLE_EVERY == 0;
        let before = timed.then(Instant::now);
        let response = store.call(at, request);
        let after = before.map(|before| {
            let after = Instant::now();
            if let Some(latency) = latency.as_deref_mut() {
                latency.push((after - before).as_nanos() as u64);
            }
            after
        });
        tally.settle(verb, &response);
        ops += 1;
        let done = match (until, after) {
            (Until::Ops(n), _) => ops >= n,
            (Until::Time(deadline), Some(after)) => after >= deadline,
            (Until::Time(_), None) => false,
        };
        if done {
            return (ops, started.elapsed());
        }
    }
}

/// [`direct`] for `ops` requests with a span tree per request:
/// `op` ⊃ {`loadgen.next`, `<layer>.<verb>`}.
pub fn direct_traced<S: StoreApi>(
    store: &mut S,
    stream: &mut Stream,
    tally: &mut Tally,
    ops: u64,
    spans: &mut Spans,
    layer: &Layer,
) -> Duration {
    let started = Instant::now();
    let mut op_start = spans.now();
    for index in 0..ops {
        let (at, request) = stream.next();
        let verb = VerbKind::of(&request);
        let generated = spans.now();
        let response = store.call(at, request);
        let answered = spans.now();
        tally.settle(verb, &response);
        let op_end = spans.now();
        let op = spans.root("op", op_start, op_end, index);
        spans.child("loadgen.next", op_start, generated, op);
        spans.child(layer[verb.code() as usize], generated, answered, op);
        op_start = op_end;
    }
    started.elapsed()
}

struct InFlight {
    pending: Pending,
    verb: VerbKind,
    sent: Option<Instant>,
    root: Option<SpanId>,
}

/// A closed-loop client's window of submissions awaiting their replies.
/// It persists across consecutive load phases on one service.
#[derive(Default)]
pub struct Pipe {
    inflight: VecDeque<InFlight>,
    submitted: u64,
}

impl Pipe {
    /// Collects every outstanding reply.
    pub fn drain(&mut self, tally: &mut Tally, mut spans: Option<&mut Spans>) {
        while let Some(oldest) = self.inflight.pop_front() {
            let waited_from = spans.as_deref().map(Spans::now);
            let response = oldest.pending.wait();
            if let (Some(spans), Some(root), Some(from)) =
                (spans.as_deref_mut(), oldest.root, waited_from)
            {
                let now = spans.now();
                spans.child("serve.wait", from, now, root);
                spans.end(root, now);
            }
            tally.settle(oldest.verb, &response);
        }
    }
}

/// Drives a service through `client`, keeping up to [`WINDOW`]
/// submissions in flight. Returns the replies collected and the wall time
/// taken; the latency of every [`SAMPLE_EVERY`]-th request, from before
/// its `submit` to after its `wait`, goes to `latency`.
pub fn pipelined(
    client: &ServeClient,
    stream: &mut Stream,
    tally: &mut Tally,
    pipe: &mut Pipe,
    until: Until,
    mut latency: Option<&mut Vec<u64>>,
) -> (u64, Duration) {
    let started = Instant::now();
    let collected_before = tally.ops;
    let mut issued = 0u64;
    loop {
        let mut reached = false;
        if pipe.inflight.len() >= WINDOW {
            let oldest = pipe.inflight.pop_front().expect("window is non-empty");
            let response = oldest.pending.wait();
            if let Some(sent) = oldest.sent {
                let now = Instant::now();
                if let Some(latency) = latency.as_deref_mut() {
                    latency.push((now - sent).as_nanos() as u64);
                }
                reached = matches!(until, Until::Time(deadline) if now >= deadline);
            }
            tally.settle(oldest.verb, &response);
        }
        if reached || matches!(until, Until::Ops(n) if issued >= n) {
            return (tally.ops - collected_before, started.elapsed());
        }
        let (at, request) = stream.next();
        let verb = VerbKind::of(&request);
        let sent = (pipe.submitted % SAMPLE_EVERY == 0).then(Instant::now);
        pipe.submitted += 1;
        issued += 1;
        match client.submit(at, request) {
            Ok(pending) => pipe.inflight.push_back(InFlight {
                pending,
                verb,
                sent,
                root: None,
            }),
            Err(error) => tally.settle(verb, &verb.failed(error)),
        }
    }
}

/// [`pipelined`] for `ops` requests with a span tree per request:
/// `op` ⊃ {`loadgen.next`, `serve.submit`, `serve.wait`}. A request's
/// `op` stays open while it sits in the window, so its self time is the
/// time the client spent on other requests meanwhile. Drains the window
/// before returning, so every span it opened is closed.
pub fn pipelined_traced(
    client: &ServeClient,
    stream: &mut Stream,
    tally: &mut Tally,
    pipe: &mut Pipe,
    ops: u64,
    spans: &mut Spans,
) -> Duration {
    let started = Instant::now();
    let mut turn_start = spans.now();
    for index in 0..ops {
        if pipe.inflight.len() >= WINDOW {
            let oldest = pipe.inflight.pop_front().expect("window is non-empty");
            let response = oldest.pending.wait();
            let waited = spans.now();
            if let Some(root) = oldest.root {
                spans.child("serve.wait", turn_start, waited, root);
                spans.end(root, waited);
            }
            tally.settle(oldest.verb, &response);
            turn_start = spans.now();
        }
        let (at, request) = stream.next();
        let verb = VerbKind::of(&request);
        let generated = spans.now();
        pipe.submitted += 1;
        let submitted = client.submit(at, request);
        let returned = spans.now();
        let op = spans.root("op", turn_start, returned, index);
        spans.child("loadgen.next", turn_start, generated, op);
        spans.child("serve.submit", generated, returned, op);
        match submitted {
            Ok(pending) => pipe.inflight.push_back(InFlight {
                pending,
                verb,
                sent: None,
                root: Some(op),
            }),
            Err(error) => tally.settle(verb, &verb.failed(error)),
        }
        turn_start = returned;
    }
    pipe.drain(tally, Some(spans));
    started.elapsed()
}
