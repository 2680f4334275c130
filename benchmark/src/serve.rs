//! Load generation against a real `mb-serve` over localhost and the
//! response check. Two traffic shapes: an open loop that sends on a
//! fixed schedule whatever the server does, and a closed loop whose
//! clients each wait for a reply before sending the next request.

use crate::client::{link_request, Conn};
use crate::fixture::linker_for;
use crate::oracle::Answer;
use crate::stats::{Fnv, Slot};
use mb_datagen::LinkedMention;
use mb_serve::{Generation, ModelRegistry, Server, ServerConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Connections of the open loop and clients of the closed loop: one
/// per core of the box, so the generator never outnumbers the server.
pub const CLIENTS: usize = 2;
/// Open-loop arrival rate (requests per second).
pub const PACED_RATE: u64 = 150;
/// Responses compared bit-for-bit against the in-process linker (all
/// of them are parsed and shape-checked).
pub const ORACLE_SAMPLE: usize = 1024;

/// One completed exchange.
pub struct Reply {
    /// Position in the plan (open loop) or send order (closed loop).
    pub index: usize,
    /// Index into the mention pool.
    pub mention: usize,
    /// Open loop: the slot's due time; closed loop: the send time.
    /// Seconds from the start of the traffic.
    pub at_s: f64,
    /// From `at_s` to the last byte of the reply.
    pub latency_s: f64,
    /// Open loop: how long after its due time the request was sent.
    pub late_s: f64,
    pub status: u16,
    pub body: Vec<u8>,
}

/// Start `mb-serve` at the defaults a user gets, on an ephemeral port.
pub fn start(registry: ModelRegistry) -> Server {
    Server::start_with_registry(registry, ServerConfig::default()).expect("start mb-serve")
}

/// Wire bytes of a `/link` request per pool mention.
pub fn encode_pool(pool: &[LinkedMention]) -> Vec<Vec<u8>> {
    pool.iter().map(link_request).collect()
}

/// Join client threads, re-raising a panic with its own payload.
fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    handles.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
}

/// Open loop: connection `c` of [`CLIENTS`] takes slots `c, c+CLIENTS,
/// …` of `plan`. A slot whose connection is still waiting for the
/// previous reply is *blocked*: it goes out late, the lateness counts
/// in its latency, and the count says when the loop stopped being open.
/// Returns the replies in plan order and the number of blocked slots.
pub fn drive_paced(
    addr: SocketAddr,
    plan: &[Slot],
    requests: &[Vec<u8>],
) -> Result<(Vec<Reply>, u64), String> {
    // A small lead so every connection is open before slot 0 is due.
    let start = Instant::now() + Duration::from_millis(20);
    let per_conn = std::thread::scope(|scope| {
        let handles = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || -> Result<(Vec<Reply>, u64), String> {
                    let mut conn = Conn::open(addr)?;
                    let mut replies = Vec::with_capacity(plan.len() / CLIENTS + 1);
                    let mut blocked = 0u64;
                    let mut free_at = start;
                    for (index, slot) in plan.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let due = start + Duration::from_nanos(slot.due_ns);
                        if free_at > due {
                            blocked += 1;
                        }
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (status, body) = conn.exchange(&requests[slot.mention])?;
                        free_at = Instant::now();
                        replies.push(Reply {
                            index,
                            mention: slot.mention,
                            at_s: slot.due_ns as f64 / 1e9,
                            latency_s: (free_at - due).as_secs_f64(),
                            late_s: (sent - due).as_secs_f64(),
                            status,
                            body,
                        });
                    }
                    Ok((replies, blocked))
                })
            })
            .collect();
        join_all(handles)
    });
    let mut replies = Vec::with_capacity(plan.len());
    let mut blocked = 0;
    for r in per_conn {
        let (mut rs, b) = r?;
        replies.append(&mut rs);
        blocked += b;
    }
    replies.sort_by_key(|r| r.index);
    Ok((replies, blocked))
}

/// Closed loop: [`CLIENTS`] clients send back-to-back for `seconds`,
/// taking pool mentions in order from `next` so no mention repeats
/// until the pool wraps. Returns the replies in send order.
pub fn drive_saturated(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    next: &AtomicUsize,
    seconds: f64,
) -> Result<Vec<Reply>, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let per_client = std::thread::scope(|scope| {
        let handles = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || -> Result<Vec<Reply>, String> {
                    let mut conn = Conn::open(addr)?;
                    let mut replies = Vec::new();
                    while started.elapsed() < budget {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let mention = index % requests.len();
                        let sent = Instant::now();
                        let (status, body) = conn.exchange(&requests[mention])?;
                        replies.push(Reply {
                            index,
                            mention,
                            at_s: (sent - started).as_secs_f64(),
                            latency_s: sent.elapsed().as_secs_f64(),
                            late_s: 0.0,
                            status,
                            body,
                        });
                    }
                    Ok(replies)
                })
            })
            .collect();
        join_all(handles)
    });
    let mut replies = Vec::new();
    for r in per_client {
        replies.append(&mut r?);
    }
    replies.sort_by_key(|r| r.index);
    Ok(replies)
}

/// Result of checking a run's replies.
pub struct Verdict {
    /// Non-200 replies, malformed bodies and oracle mismatches.
    pub failed: u64,
    /// FNV over the oracle-checked answers, in reply order.
    pub checksum: u64,
    /// First few failure descriptions, for the log.
    pub reasons: Vec<String>,
}

/// Check every reply: status 200, a well-formed body stamped with
/// `generation`'s id whose predicted entity heads its candidate list.
/// The first [`ORACLE_SAMPLE`] replies must also equal, bit for bit, an
/// in-process `TwoStageLinker::link` on the same generation.
pub fn verify(replies: &[Reply], pool: &[LinkedMention], generation: &Generation) -> Verdict {
    let linker = linker_for(generation, true);
    let mut expected: HashMap<usize, Answer> = HashMap::new();
    let mut verdict = Verdict { failed: 0, checksum: 0, reasons: Vec::new() };
    let mut sum = Fnv::new();
    for (n, reply) in replies.iter().enumerate() {
        let outcome = (|| -> Result<(), String> {
            if reply.status != 200 {
                return Err(format!("status {}", reply.status));
            }
            let (got, stamp) = Answer::parse(&reply.body)?;
            if stamp != generation.id {
                return Err(format!("generation {stamp}, expected {}", generation.id));
            }
            if got.predicted.is_none() || got.predicted != got.top.first().map(|c| c.0) {
                return Err("predicted entity does not head the candidates".to_string());
            }
            if n < ORACLE_SAMPLE {
                let mention = &pool[reply.mention];
                let want = match expected.get(&reply.mention) {
                    Some(want) => want,
                    None => {
                        let result = linker.link(mention).map_err(|e| format!("oracle: {e}"))?;
                        expected.entry(reply.mention).or_insert(Answer::of(&result))
                    }
                };
                if &got != want {
                    return Err("answer differs from the in-process linker".to_string());
                }
                got.checksum_into(&mut sum);
            }
            Ok(())
        })();
        if let Err(why) = outcome {
            verdict.failed += 1;
            if verdict.reasons.len() < 5 {
                verdict.reasons.push(format!("request {}: {why}", reply.index));
            }
        }
    }
    verdict.checksum = sum.0;
    verdict
}
