//! Seeded frame faults on the serving core.

use std::net::SocketAddr;
use std::time::Instant;

use super::{mangle_payload, FaultKind, FaultPlan};
use crate::frame::TraceHeader;
use crate::serve::{FrameService, Outbox, Payload};

/// Wraps a [`FrameService`] so that every inbound frame first consults
/// a [`FaultPlan`] at one named site. Served with
/// [`crate::serve::serve`], the chaos suites fault the same core and
/// protocol code that production runs:
///
/// - [`FaultKind::Error`] — the connection closes with no reply; the
///   request is *not* applied.
/// - [`FaultKind::AckLost`] — the request **is** applied, then the
///   connection closes before the reply: the client observes an error
///   although the effect landed.
/// - [`FaultKind::Garbage`] — an unparseable reply; the request is not
///   applied.
/// - [`FaultKind::Truncate`] — the request is applied and each reply
///   frame carries only the first half of its bytes.
/// - [`FaultKind::Replay`] — the previous reply on this connection is
///   resent instead of applying the request (with no previous reply
///   the frame is served normally).
/// - [`FaultKind::Delay`] — the frame passes through; the core has no
///   injected clock to stall.
#[derive(Debug)]
pub struct FaultService<S> {
    inner: S,
    plan: FaultPlan,
    site: String,
}

impl<S: FrameService> FaultService<S> {
    /// Wraps `inner`; each inbound frame draws one decision from `plan`
    /// at `site`.
    pub fn new(inner: S, plan: FaultPlan, site: impl Into<String>) -> Self {
        FaultService {
            inner,
            plan,
            site: site.into(),
        }
    }
}

impl<S: FrameService> FrameService for FaultService<S> {
    /// The inner service's state plus the last healthy reply on this
    /// connection, which [`FaultKind::Replay`] resends.
    type Conn = (S::Conn, Option<Payload>);

    fn on_connect(&self, peer: SocketAddr) -> Self::Conn {
        (self.inner.on_connect(peer), None)
    }

    fn on_frame(
        &self,
        (state, previous): &mut Self::Conn,
        header: Option<TraceHeader>,
        payload: Vec<u8>,
        out: &mut Outbox,
    ) {
        let fault = self.plan.next(&self.site);
        match (fault, previous.as_ref()) {
            (Some(FaultKind::Error), _) => return out.close(),
            (Some(FaultKind::Garbage), _) => {
                let garbage = mangle_payload(FaultKind::Garbage, String::new(), None);
                return out.push_owned(garbage.into_bytes());
            }
            (Some(FaultKind::Replay), Some(reply)) => return out.items.push((None, reply.clone())),
            _ => {}
        }
        self.inner.on_frame(state, header, payload, out);
        match fault {
            Some(FaultKind::AckLost) => {
                out.take();
                out.close();
            }
            Some(FaultKind::Truncate) => {
                for (_, reply) in &mut out.items {
                    let bytes = reply.as_slice();
                    *reply = Payload::Owned(bytes[..bytes.len() / 2].to_vec());
                }
            }
            _ => {
                if let Some((_, reply)) = out.items.last() {
                    *previous = Some(reply.clone());
                }
            }
        }
    }

    fn poll(&self, (state, _): &mut Self::Conn, now: Instant, out: &mut Outbox) {
        self.inner.poll(state, now, out);
    }

    fn on_disconnect(&self, (state, _): &mut Self::Conn) {
        self.inner.on_disconnect(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame_traced, write_frame_traced};
    use crate::serve::{serve, NoServeMetrics, ServeConfig};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Echoes each frame (keeping its trace header) and counts the
    /// frames it applied.
    struct CountingEcho(Arc<AtomicU64>);

    impl FrameService for CountingEcho {
        type Conn = ();
        fn on_connect(&self, _peer: SocketAddr) -> Self::Conn {}
        fn on_frame(
            &self,
            _conn: &mut Self::Conn,
            header: Option<TraceHeader>,
            payload: Vec<u8>,
            out: &mut Outbox,
        ) {
            self.0.fetch_add(1, Ordering::SeqCst);
            out.push_owned_traced(header, payload);
        }
    }

    /// One reply frame, or `None` once the server closed the connection.
    type Reply = Option<(Option<TraceHeader>, Vec<u8>)>;

    /// Serves a faulted echo scripted by `script`, sends `requests` in
    /// order on one connection and returns each reply plus the
    /// applied-frame count.
    fn exchange(
        script: Vec<Option<FaultKind>>,
        requests: &[(Option<TraceHeader>, &[u8])],
    ) -> (Vec<Reply>, u64) {
        let applied = Arc::new(AtomicU64::new(0));
        let plan = FaultPlan::new(0).script("echo", script);
        let service = FaultService::new(CountingEcho(Arc::clone(&applied)), plan, "echo");
        let handle = serve(
            "127.0.0.1:0",
            ServeConfig::default(),
            service,
            NoServeMetrics,
        )
        .expect("bind faulted echo");
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let replies = requests
            .iter()
            .map(|(header, request)| {
                write_frame_traced(&mut stream, *header, request).ok()?;
                read_frame_traced(&mut stream).ok()
            })
            .collect();
        drop(stream);
        handle.shutdown();
        (replies, applied.load(Ordering::SeqCst))
    }

    fn reply(bytes: &[u8]) -> Reply {
        Some((None, bytes.to_vec()))
    }

    #[test]
    fn error_closes_without_reply_or_effect() {
        let (replies, applied) = exchange(vec![Some(FaultKind::Error)], &[(None, b"ping")]);
        assert_eq!(replies, [None]);
        assert_eq!(applied, 0);
    }

    #[test]
    fn ack_lost_applies_then_closes_without_reply() {
        let (replies, applied) = exchange(vec![Some(FaultKind::AckLost)], &[(None, b"ping")]);
        assert_eq!(replies, [None]);
        assert_eq!(applied, 1);
    }

    #[test]
    fn garbage_replies_with_the_garbage_bytes() {
        let (replies, _) = exchange(vec![Some(FaultKind::Garbage)], &[(None, b"ping")]);
        let garbage = mangle_payload(FaultKind::Garbage, String::new(), None);
        assert_eq!(replies, [reply(garbage.as_bytes())]);
    }

    #[test]
    fn truncate_replies_with_the_first_half() {
        let (replies, applied) = exchange(vec![Some(FaultKind::Truncate)], &[(None, b"abcdef")]);
        assert_eq!(replies, [reply(b"abc")]);
        assert_eq!(applied, 1);
    }

    #[test]
    fn replay_resends_the_previous_reply_on_the_connection() {
        let (replies, applied) = exchange(
            vec![None, Some(FaultKind::Replay)],
            &[(None, b"first"), (None, b"second")],
        );
        assert_eq!(replies, [reply(b"first"), reply(b"first")]);
        assert_eq!(applied, 1);
    }

    #[test]
    fn delay_passes_the_frame_through() {
        let (replies, applied) = exchange(vec![Some(FaultKind::Delay(50))], &[(None, b"ping")]);
        assert_eq!(replies, [reply(b"ping")]);
        assert_eq!(applied, 1);
    }

    #[test]
    fn trace_tagged_requests_pass_through_the_wrapper() {
        let header = TraceHeader {
            trace_id: 0xfeed_beef_dead_cafe,
            span_id: 0x1234_5678_9abc_def0,
        };
        let (replies, applied) = exchange(vec![None], &[(Some(header), b"traced")]);
        assert_eq!(replies, [Some((Some(header), b"traced".to_vec()))]);
        assert_eq!(applied, 1);
    }
}
