//! Load from one process with at most [`MAX_THREADS`] sender threads, each
//! with at most one connection open.
//!
//! - Open loop: requests are due at their scheduled times; each goes on a
//!   connection of its own. A thread that falls behind sends at once, and
//!   latency is timed from the due time, so a stall inflates every request
//!   queued behind it instead of silently thinning the load.
//! - Closed loop: each thread keeps one keep-alive connection and sends its
//!   next request as soon as the previous answer arrives.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::http;
use crate::inputs::{Entry, Op};
use crate::trace::{SpanRec, Tracer};

/// Most sender threads, and so the most connections open at once.
pub const MAX_THREADS: usize = 2;

/// One request as the generator saw it. Times are microseconds from the
/// start of the run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the schedule.
    pub idx: usize,
    /// When it was due (open loop) or sent (closed loop).
    pub due_us: f64,
    /// When it was sent.
    pub sent_us: f64,
    /// When its answer had been read.
    pub done_us: f64,
    /// HTTP status; 0 for a transport failure.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl Sample {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_us - self.due_us) / 1e3
    }

    /// Latency from the send, ms.
    pub fn service_ms(&self) -> f64 {
        (self.done_us - self.sent_us) / 1e3
    }

    /// How late the generator sent it, ms.
    pub fn late_ms(&self) -> f64 {
        (self.sent_us - self.due_us).max(0.0) / 1e3
    }
}

fn span_name(op: Op) -> &'static str {
    match op {
        Op::Similar => "serve.http_similar",
        Op::Whitespace => "serve.http_whitespace",
        Op::Recommend => "serve.http_recommend",
        Op::Swap => "serve.http_swap",
    }
}

/// Runs `entries` open loop against `addr` from `threads` senders.
/// `parent` is the span the requests are recorded under when `tracer`
/// keeps spans.
pub fn open_loop(
    addr: SocketAddr,
    entries: &[Entry],
    threads: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Vec<Sample> {
    assert!(
        (1..=MAX_THREADS).contains(&threads),
        "1..={MAX_THREADS} senders"
    );
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let base_us = tracer.now_us();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(e) = entries.get(i) else { break };
                        let due = Duration::from_micros(e.at_us);
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let method = if e.op == Op::Swap { "POST" } else { "GET" };
                        let reply = http::one_shot(addr, method, &e.target);
                        let done = start.elapsed();
                        tracer.record(SpanRec {
                            id: tracer.id(),
                            parent,
                            name: span_name(e.op).to_string(),
                            req: Some(i as u64),
                            start_us: base_us + sent.as_secs_f64() * 1e6,
                            end_us: base_us + done.as_secs_f64() * 1e6,
                        });
                        let (status, body) = reply.map_or((0, Vec::new()), |r| (r.status, r.body));
                        out.push(Sample {
                            idx: i,
                            due_us: e.at_us as f64,
                            sent_us: sent.as_secs_f64() * 1e6,
                            done_us: done.as_secs_f64() * 1e6,
                            status,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop sender panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.idx);
    samples
}

/// Runs `entries` closed loop over `threads` keep-alive connections for
/// `duration` (or until the schedule runs out). Returns the samples and the
/// number of connections opened.
pub fn closed_loop(
    addr: SocketAddr,
    entries: &[Entry],
    threads: usize,
    duration: Duration,
    tracer: &Tracer,
    parent: Option<u64>,
) -> (Vec<Sample>, usize) {
    assert!(
        (1..=MAX_THREADS).contains(&threads),
        "1..={MAX_THREADS} senders"
    );
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let base_us = tracer.now_us();
    let (mut samples, opened) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = http::KeepAlive::new(addr);
                    let mut out = Vec::new();
                    while start.elapsed() < duration {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(e) = entries.get(i) else { break };
                        let sent = start.elapsed();
                        let reply = client.get(&e.target);
                        let done = start.elapsed();
                        tracer.record(SpanRec {
                            id: tracer.id(),
                            parent,
                            name: span_name(e.op).to_string(),
                            req: Some(i as u64),
                            start_us: base_us + sent.as_secs_f64() * 1e6,
                            end_us: base_us + done.as_secs_f64() * 1e6,
                        });
                        let (status, body) = reply.map_or((0, Vec::new()), |r| (r.status, r.body));
                        out.push(Sample {
                            idx: i,
                            due_us: sent.as_secs_f64() * 1e6,
                            sent_us: sent.as_secs_f64() * 1e6,
                            done_us: done.as_secs_f64() * 1e6,
                            status,
                            body,
                        });
                    }
                    (out, client.opened)
                })
            })
            .collect();
        workers
            .into_iter()
            .fold((Vec::new(), 0), |(mut all, n), w| {
                let (out, opened) = w.join().expect("closed-loop sender panicked");
                all.extend(out);
                (all, n + opened)
            })
    });
    samples.sort_by_key(|s| s.idx);
    (samples, opened)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A one-thread server that answers each connection with 200 after
    /// `stall` for the request whose target contains `slow`, instantly
    /// otherwise.
    fn stub_server(stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                let mut line = String::new();
                let mut r = BufReader::new(conn.try_clone().unwrap());
                r.read_line(&mut line).unwrap();
                loop {
                    let mut h = String::new();
                    if r.read_line(&mut h).unwrap() == 0 || h == "\r\n" {
                        break;
                    }
                }
                if line.contains("slow") {
                    std::thread::sleep(stall);
                }
                let _ = conn.write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
                );
            }
        });
        addr
    }

    #[test]
    fn open_loop_latency_counts_a_stall_against_later_requests() {
        let addr = stub_server(Duration::from_millis(300));
        // 40 requests due every 5 ms; the 5th stalls the (serial) server.
        let entries: Vec<Entry> = (0..40)
            .map(|i| Entry {
                phase: 0,
                at_us: i * 5_000,
                op: Op::Similar,
                company: 0,
                target: if i == 4 {
                    "/slow".into()
                } else {
                    "/fast".into()
                },
            })
            .collect();
        let samples = open_loop(addr, &entries, 2, &Tracer::new(false), None);
        assert_eq!(samples.len(), 40);
        assert!(samples.iter().all(|s| s.status == 200));
        // Requests due during the stall waited behind it: timed from their
        // due time they are slow, although the server answered them fast.
        let behind = &samples[10];
        assert!(behind.latency_ms() > 100.0, "{}", behind.latency_ms());
        assert!(behind.service_ms() < 100.0, "{}", behind.service_ms());
        assert!(behind.late_ms() > 100.0);
        // Before the stall, nothing waited.
        assert!(samples[1].latency_ms() < 100.0);
    }
}
