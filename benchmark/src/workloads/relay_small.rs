//! `relay_small` — the smallest message across one federation hop.
//!
//! Structure B (~200 B NDR) from a dynamic `CapturePoint` on an origin
//! `Broker` behind a `FederatedBroker` (default epoll `NetConfig`), one
//! `FederationLink` over 127.0.0.1 into a leaf `Broker`, one subscriber
//! reading two fields through `RecordView`. Both ends are the host
//! architecture, so conversion is the Identity tier and per-frame cost
//! in `backbone::{net, federation, broker}` is nearly all of the work.
//! The link is the host's loopback interface, not a real network.
//!
//! [`RelaySmall::deploy_with`] can deploy the same stream without the
//! hop; the trace subtracts that to price the federation layer.

use std::sync::Arc;

use backbone::{
    Broker, CapturePoint, FederatedBroker, FederationLink, LinkConfig, NetConfig, Subscription,
};
use clayout::{Architecture, Record};
use pbio::Format;

use super::{index_and_dest_match, link_frame_bytes, publish_from_pool, site_catalogue, Site};
use crate::gen::{self, B_FORMAT, POOL};
use crate::harness::{
    wait_ready, CollectFn, Deployment, Fail, IssueFn, Plan, SetupClock, Workload, DEADLINE, SLICES,
};
use crate::trace::Tracer;

const STREAM: &str = "asd-offs";

pub struct RelaySmall {
    catalogue: String,
    pool: Vec<Record>,
    /// `frame_prefix[k]`: link bytes of pool entries `0..k`.
    frame_prefix: Vec<u64>,
}

impl RelaySmall {
    pub fn new(seed: u64) -> RelaySmall {
        let vocabulary = gen::Vocabulary::new(seed);
        let pool = gen::b_pool(seed, &vocabulary);
        let session = xml2wire::Xml2Wire::builder().build();
        let format = session
            .register_schema_str(&gen::b_schema())
            .expect("the generated Structure B schema binds")
            .remove(0);
        let mut frame_prefix = vec![0u64];
        let mut scratch = Vec::new();
        for record in &pool {
            pbio::ndr::encode_into(&mut scratch, record, &format)
                .expect("generated records encode");
            let last = *frame_prefix.last().expect("starts non-empty");
            frame_prefix.push(last + link_frame_bytes(STREAM, B_FORMAT, scratch.len()));
        }
        RelaySmall {
            catalogue: site_catalogue(seed),
            pool,
            frame_prefix,
        }
    }

    /// Link bytes the first `events` events of the stream occupy.
    pub fn wire_bytes(&self, events: u64) -> u64 {
        let whole = self.frame_prefix[POOL];
        (events / POOL as u64) * whole + self.frame_prefix[(events % POOL as u64) as usize]
    }

    /// Deploys with (`hop`) or without the federation hop.
    pub fn deploy_with(
        &self,
        hop: bool,
        round: usize,
        clock: &mut SetupClock,
    ) -> Result<Relay<'_>, Fail> {
        let mut site = Site::start(&self.catalogue)?;
        let origin_session = site.peer(Architecture::host(), clock)?;
        let origin = Arc::new(Broker::new());
        let capture = CapturePoint::new(
            Arc::clone(&origin),
            origin_session,
            STREAM,
            B_FORMAT,
            Some(site.catalogue_url.clone()),
        )?;
        let leaf_session = site.peer(Architecture::host(), clock)?;
        let format = leaf_session.require_format(B_FORMAT)?;

        let (sub, hop) = if hop {
            let fed =
                FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())?;
            let leaf = Arc::new(Broker::new());
            let link = FederationLink::connect(
                fed.local_addr(),
                Arc::clone(&leaf),
                LinkConfig::new([STREAM]),
            )?;
            let sub = leaf.subscribe(STREAM)?;
            // The origin stream is not durable, so an event published
            // before the link's subscription is in place is simply not
            // forwarded: wait for the forwarder before the first event.
            wait_ready("federation link", || {
                link.is_connected() && fed.forwarder_count() == 1
            })?;
            (sub, Some((link, fed)))
        } else {
            (origin.subscribe(STREAM)?, None)
        };
        Ok(Relay {
            workload: self,
            round,
            sub,
            hop,
            capture,
            format,
            site,
            issued: 0,
            collected: 0,
        })
    }
}

impl Workload for RelaySmall {
    fn plan(&self) -> Plan {
        Plan {
            cold_starts: 40,
            setup_sensitivity: 1.0,
            round: 256,
            warmup_rounds: 64,
            rounds_per_slice: 62,
            paced_rate_eps: 140_000.0,
            paced_burst: 64,
            bursts_per_slice: 64,
            paced_slices: SLICES,
        }
    }

    fn budget(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("backbone.stream.capture_publish_ns", 1.0),
            ("backbone.net.frame_write_ns", 1.0),
            ("backbone.net.frame_read_ns", 1.0),
            // The link republishes each frame on the leaf broker.
            ("backbone.broker.publish_ns", 1.0),
            // Two of the record's eight fields are read.
            ("pbio.view_ns", 0.25),
        ]
    }

    fn deploy(
        &self,
        _epoch: usize,
        clock: &mut SetupClock,
    ) -> Result<Box<dyn Deployment + '_>, Fail> {
        Ok(Box::new(self.deploy_with(
            true,
            self.plan().round,
            clock,
        )?))
    }
}

/// Fields drop in declaration order: the subscriber and the link go
/// before the serving broker they talk to.
pub struct Relay<'w> {
    workload: &'w RelaySmall,
    round: usize,
    sub: Subscription,
    hop: Option<(FederationLink, FederatedBroker)>,
    capture: CapturePoint,
    format: Arc<Format>,
    site: Site,
    issued: u64,
    collected: u64,
}

fn collect(
    sub: &Subscription,
    format: &Format,
    pool: &[Record],
    collected: &mut u64,
    n: usize,
    mut stamp: impl FnMut(),
    tracer: &mut Tracer,
) -> u64 {
    for done in 0..n {
        let event = tracer.span("backbone.broker.Subscription::recv", *collected, || {
            sub.recv_timeout(DEADLINE)
        });
        let Ok(event) = event else {
            return (n - done) as u64;
        };
        let index = (*collected % POOL as u64) as usize;
        let ok = tracer.span("pbio.ndr::view_with", *collected, || {
            pbio::ndr::view_with(&event.payload, format)
                .is_ok_and(|view| index_and_dest_match(&view, &pool[index]))
        });
        if !ok {
            return (n - done) as u64;
        }
        stamp();
        *collected += 1;
    }
    0
}

impl Deployment for Relay<'_> {
    fn round(&mut self, tracer: &mut Tracer) -> u64 {
        let open = tracer.enter("round", self.issued);
        let pool = &self.workload.pool;
        let mut failed =
            publish_from_pool(&self.capture, pool, &mut self.issued, self.round, tracer);
        if failed == 0 {
            failed = collect(
                &self.sub,
                &self.format,
                pool,
                &mut self.collected,
                self.round,
                || (),
                tracer,
            );
        }
        tracer.exit(open);
        failed
    }

    fn split(&mut self) -> (IssueFn<'_>, CollectFn<'_>) {
        let pool = &self.workload.pool;
        let (sub, capture, format) = (&self.sub, &self.capture, &self.format);
        let (issued, collected) = (&mut self.issued, &mut self.collected);
        (
            Box::new(move |n, tracer| publish_from_pool(capture, pool, issued, n, tracer)),
            Box::new(move |n, stamps, tracer| {
                collect(
                    sub,
                    format,
                    pool,
                    collected,
                    n,
                    || stamps.push(std::time::Instant::now()),
                    tracer,
                )
            }),
        )
    }

    fn wire(&self) -> (u64, u64) {
        (self.workload.wire_bytes(self.issued), self.issued)
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let cache = ("core.schema_cache_hit_ratio", self.site.cache_hit_ratio());
        let Some((link, fed)) = &self.hop else {
            return vec![cache];
        };
        let net = fed.net_stats();
        let link = link.stats();
        vec![
            cache,
            (
                "backbone.net.frames_per_writev",
                net.frames_written as f64 / net.writev_calls.max(1) as f64,
            ),
            ("backbone.net.partial_writes", net.partial_writes as f64),
            ("backbone.net.pushes_dropped", net.pushes_dropped as f64),
            (
                "backbone.federation.duplicates_dropped",
                link.duplicates_dropped as f64,
            ),
            (
                "backbone.federation.reconnects",
                link.reconnect_attempts as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A one-connection TCP proxy in front of `upstream` that counts the
    /// bytes flowing back from it. Returns its address, the counter and
    /// its thread (which ends when either side closes).
    fn counting_proxy(
        upstream: SocketAddr,
    ) -> (SocketAddr, Arc<AtomicU64>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let downstream_bytes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&downstream_bytes);
        let thread = std::thread::spawn(move || {
            let (mut client, _) = listener.accept().unwrap();
            let mut server = TcpStream::connect(upstream).unwrap();
            let (mut client_in, mut server_out) =
                (client.try_clone().unwrap(), server.try_clone().unwrap());
            let up = std::thread::spawn(move || {
                let _ = std::io::copy(&mut client_in, &mut server_out);
                let _ = server_out.shutdown(std::net::Shutdown::Both);
            });
            let mut buffer = [0u8; 16 * 1024];
            while let Ok(n @ 1..) = server.read(&mut buffer) {
                // Counted before it is passed on: once the subscriber
                // has an event, its bytes are in the count.
                counter.fetch_add(n as u64, Ordering::SeqCst);
                if client.write_all(&buffer[..n]).is_err() {
                    break;
                }
            }
            let _ = client.shutdown(std::net::Shutdown::Both);
            up.join().unwrap();
        });
        (addr, downstream_bytes, thread)
    }

    /// `wire_bytes` mirrors the link's framing by formula; this holds it
    /// against the bytes a real link carried for the same events.
    #[test]
    fn wire_accounting_equals_the_bytes_the_link_carries() {
        let workload = RelaySmall::new(gen::REFERENCE_SEED);
        let session = Arc::new(xml2wire::Xml2Wire::builder().build());
        session.register_schema_str(&gen::b_schema()).unwrap();
        let origin = Arc::new(Broker::new());
        let capture =
            CapturePoint::new(Arc::clone(&origin), session, STREAM, B_FORMAT, None).unwrap();
        let fed = FederatedBroker::bind(Arc::clone(&origin), "127.0.0.1:0", NetConfig::default())
            .unwrap();
        let (proxy, carried, proxy_thread) = counting_proxy(fed.local_addr());
        let leaf = Arc::new(Broker::new());
        let link =
            FederationLink::connect(proxy, Arc::clone(&leaf), LinkConfig::new([STREAM])).unwrap();
        let sub = leaf.subscribe(STREAM).unwrap();
        wait_ready("federation link", || {
            link.is_connected() && fed.forwarder_count() == 1
        })
        .unwrap();

        let mut issued = 0;
        let mut relay = |n: usize| {
            let failed =
                publish_from_pool(&capture, &workload.pool, &mut issued, n, &mut Tracer::off());
            assert_eq!(failed, 0);
            for _ in 0..n {
                sub.recv_timeout(DEADLINE).unwrap();
            }
            carried.load(Ordering::SeqCst)
        };
        // The first batch also carries the link's control frames; the
        // second carries events only.
        let after_first = relay(300);
        let after_second = relay(700);
        assert_eq!(
            after_second - after_first,
            workload.wire_bytes(1000) - workload.wire_bytes(300)
        );

        drop((sub, link, fed));
        proxy_thread.join().unwrap();
    }
}
