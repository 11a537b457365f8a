//! One seeded in-process world for every engine-level scenario: the
//! shipped [`live::send_session`] drives N paths into a population of
//! receivers, with no sockets and no threads.
//!
//! * Every (receiver, path) pair walks its own [`LinkEmulator`], so a
//!   receiver sees each path as an independent loss process.
//! * Each path takes a scripted fault schedule ([`World::at`]): kill it,
//!   degrade its loss process, garble every nth datagram, fail every nth
//!   send.
//! * Receivers decode through [`live::push_salvaging`], the receive
//!   loop's own entry point, and queue their digests for the sender.
//! * A digest poll that finds the queue empty is the receivers' idle
//!   tick: every receiver still in the session flushes a report.
//!
//! Each path also records how many datagrams it was offered and an
//! FNV-1a hash of them in send order, the routing fingerprint the golden
//! test pins.

#![allow(dead_code)] // each test binary uses its own slice of the world

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;

use fec_broadcast::channel::{GilbertChannel, GilbertParams, LinkEmulator};
use fec_broadcast::flute::feedback::ReportConfig;
use fec_broadcast::flute::{FluteReceiver, FluteSender, SenderConfig};
use fec_broadcast::live::{self, DigestSource, PathSink};
use fec_broadcast::prelude::*;
use fec_broadcast::wire::{BufferPool, PoolBuf};

/// What a session carries: `objects` objects of `len` bytes each, TOIs
/// `1..=objects`, under `tsi`.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub tsi: u32,
    pub objects: u32,
    pub len: usize,
}

impl Load {
    /// Object `toi`'s bytes.
    pub fn object(&self, toi: u32) -> Vec<u8> {
        (0..self.len as u32)
            .map(|i| (i.wrapping_mul(29).wrapping_add(toi * 13) % 251) as u8)
            .collect()
    }

    /// The sender: LDGM Triangle, 64-byte symbols, one matrix seed per
    /// object.
    pub fn session(&self, tx: TxModel, ratio: ExpansionRatio) -> FluteSender {
        let mut sender = FluteSender::new(SenderConfig::new(self.tsi));
        for toi in 1..=self.objects {
            sender
                .add_object(
                    toi,
                    format!("file:///obj-{toi}.bin"),
                    &self.object(toi),
                    fec_broadcast::codec::registry::resolve("ldgm-triangle").unwrap(),
                    ratio,
                    64,
                    0xD1CE + toi as u64,
                    tx,
                )
                .unwrap();
        }
        sender
    }

    /// Receiver `n` (address 10.0.0.n), reporting every 32 datagrams, with
    /// one link per path.
    pub fn member(&self, n: u8, links: Vec<LinkEmulator>) -> Member {
        let mut receiver = FluteReceiver::new(self.tsi);
        receiver.enable_reports(ReportConfig {
            report_every: 32,
            ..ReportConfig::default()
        });
        Member {
            addr: SocketAddr::from(([10, 0, 0, n], 5000)),
            links,
            receiver,
            load: *self,
            completed_at: None,
            rejected: 0,
        }
    }
}

/// A Gilbert link.
pub fn gilbert(p: f64, q: f64, seed: u64) -> LinkEmulator {
    let params = GilbertParams::new(p, q).unwrap();
    LinkEmulator::new(Box::new(GilbertChannel::new(params, seed)), seed)
}

/// A Gilbert link with long-run loss `p_global` and mean burst length
/// `burst` packets.
pub fn bursty(p_global: f64, burst: f64, seed: u64) -> LinkEmulator {
    let q = 1.0 / burst;
    let p = p_global * q / (1.0 - p_global);
    let params = GilbertParams::new(p, q).unwrap();
    LinkEmulator::new(Box::new(GilbertChannel::new(params, seed)), seed ^ 0x10DE)
}

/// One receiver behind one link per path.
pub struct Member {
    pub addr: SocketAddr,
    links: Vec<LinkEmulator>,
    pub receiver: FluteReceiver,
    load: Load,
    /// Datagrams the paths had been offered when this receiver finished.
    pub completed_at: Option<u64>,
    /// Datagrams `push_salvaging` rejected.
    pub rejected: u64,
}

impl Member {
    /// Asks for missing symbols in every digest.
    pub fn nacks(mut self) -> Member {
        self.receiver.enable_nacks();
        self
    }

    pub fn assert_byte_exact(&self) {
        assert!(self.receiver.all_complete(), "{} missed objects", self.addr);
        for toi in 1..=self.load.objects {
            assert_eq!(
                self.receiver.object(toi).expect("decoded"),
                &self.load.object(toi)[..],
                "{}: object {toi} corrupted",
                self.addr
            );
        }
    }
}

/// A scripted change to one path.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// Everything sent on the path vanishes; the sends still succeed.
    Kill,
    /// Every receiver's link on the path becomes this Gilbert channel.
    Degrade(GilbertParams, u64),
    /// Every nth datagram on the path arrives with its header inverted.
    Garble(u64),
    /// Every nth send on the path fails.
    FailSend(u64),
}

/// One path's fault state and routing fingerprint.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lane {
    killed: bool,
    garble_every: u64,
    fail_every: u64,
    sends: u64,
    /// Datagrams offered to the path.
    pub carried: u64,
    /// FNV-1a over each offered datagram's length and bytes, in order.
    pub hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

pub struct World {
    pub members: Vec<Member>,
    pub lanes: Vec<Lane>,
    /// Datagrams offered to all paths so far.
    pub offered: u64,
    script: Vec<(u64, usize, Fault)>,
    digests: VecDeque<(PoolBuf, SocketAddr)>,
    pool: BufferPool,
}

impl World {
    /// `members` on `paths` paths: the shared world, its path sinks and
    /// the sender's digest source.
    pub fn new(members: Vec<Member>, paths: usize) -> (Rc<RefCell<World>>, Vec<Path>, Reports) {
        let world = Rc::new(RefCell::new(World {
            members,
            lanes: vec![
                Lane {
                    hash: FNV_OFFSET,
                    ..Lane::default()
                };
                paths
            ],
            offered: 0,
            script: Vec::new(),
            digests: VecDeque::new(),
            pool: BufferPool::with_config(2048, 64),
        }));
        let sinks = (0..paths)
            .map(|index| Path {
                index,
                world: world.clone(),
            })
            .collect();
        (world.clone(), sinks, Reports(world))
    }

    /// Applies `fault` to `path` once the paths have been offered `at`
    /// datagrams (0: from the start).
    pub fn at(&mut self, at: u64, path: usize, fault: Fault) {
        self.script.push((at, path, fault));
    }

    fn apply_due_faults(&mut self) {
        let offered = self.offered;
        let (due, later) = self.script.drain(..).partition(|(at, ..)| *at <= offered);
        self.script = later;
        for (_, path, fault) in due {
            let lane = &mut self.lanes[path];
            match fault {
                Fault::Kill => lane.killed = true,
                Fault::Garble(every) => lane.garble_every = every,
                Fault::FailSend(every) => lane.fail_every = every,
                Fault::Degrade(params, seed) => {
                    for member in &mut self.members {
                        member.links[path] =
                            LinkEmulator::new(Box::new(GilbertChannel::new(params, seed)), seed);
                    }
                }
            }
        }
    }
}

/// One path: a broadcast medium into every member's link for it.
pub struct Path {
    index: usize,
    world: Rc<RefCell<World>>,
}

impl PathSink for Path {
    fn send_burst(&mut self, burst: &[Vec<u8>]) -> Result<(u64, u64), String> {
        let world = &mut *self.world.borrow_mut();
        world.apply_due_faults();
        let lane = &mut world.lanes[self.index];
        lane.sends += 1;
        let mut garbled = Vec::with_capacity(burst.len());
        for dg in burst {
            lane.carried += 1;
            lane.hash = fnv1a(lane.hash, &(dg.len() as u64).to_le_bytes());
            lane.hash = fnv1a(lane.hash, dg);
            let mut dg = dg.clone();
            if lane.garble_every > 0 && lane.carried.is_multiple_of(lane.garble_every) {
                for b in dg.iter_mut().take(4) {
                    *b = !*b;
                }
            }
            garbled.push(dg);
        }
        let failed = lane.fail_every > 0 && lane.sends.is_multiple_of(lane.fail_every);
        let killed = lane.killed;
        world.offered += burst.len() as u64;
        if failed {
            return Err(format!("scripted send failure on path {}", self.index));
        }
        let bytes = burst.iter().map(|d| d.len() as u64).sum();
        if killed {
            return Ok((burst.len() as u64, bytes));
        }
        for member in &mut world.members {
            if member.completed_at.is_some() {
                continue; // a finished receiver has left the session
            }
            let delivered = member.links[self.index].transmit_batch(&garbled);
            let (_, rejected) = live::push_salvaging(&mut member.receiver, self.index, &delivered);
            member.rejected += rejected;
            let report = if member.receiver.all_complete() {
                member.completed_at = Some(world.offered);
                member.receiver.flush_report() // the FIN digest
            } else {
                member.receiver.poll_report()
            };
            if let Some(report) = report {
                let bytes = report.to_bytes().map_err(|e| e.to_string())?;
                world
                    .digests
                    .push_back((world.pool.buf_from(&bytes), member.addr));
            }
        }
        Ok((burst.len() as u64, bytes))
    }

    fn dropped(&self) -> u64 {
        0
    }
}

/// The sender's return channel.
pub struct Reports(Rc<RefCell<World>>);

impl DigestSource for Reports {
    fn try_recv_digests(&mut self, max: usize) -> io::Result<Vec<(PoolBuf, SocketAddr)>> {
        let world = &mut *self.0.borrow_mut();
        if world.digests.is_empty() {
            // The receivers' idle tick: the sender has gone quiet.
            for member in &mut world.members {
                if member.completed_at.is_some() {
                    continue;
                }
                if let Some(report) = member.receiver.flush_report() {
                    let bytes = report
                        .to_bytes()
                        .map_err(|e| io::Error::other(e.to_string()))?;
                    world
                        .digests
                        .push_back((world.pool.buf_from(&bytes), member.addr));
                }
            }
        }
        let n = max.min(world.digests.len());
        Ok(world.digests.drain(..n).collect())
    }
}
