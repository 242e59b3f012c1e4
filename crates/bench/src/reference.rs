//! A blocking, thread-per-connection runner for any [`FrameService`]:
//! the reference the multiplexed serving core ([`cais_common::serve`])
//! is compared against. `loadgen` uses it as the baseline of the ≥5×
//! bar, and `tests/serving_equivalence.rs` byte-diffs the core's
//! replies against it. Production never serves through it.

use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cais_common::frame::{read_frame_traced, write_frame_traced};
use cais_common::serve::{FrameService, Outbox};

/// How long a connection waits for a request before calling
/// [`FrameService::poll`], which paces push traffic such as the bus
/// stream's keepalives.
const POLL_EVERY: Duration = Duration::from_millis(20);

/// Binds `addr` and serves `service` with one thread per connection
/// for the life of the process, returning the bound address. Each
/// thread reads a frame, hands it to [`FrameService::on_frame`], writes
/// the queued replies in order and closes when the service asks.
///
/// # Errors
///
/// Returns the bind error when the address is unavailable.
pub fn serve_blocking<S: FrameService>(addr: &str, service: S) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let service = Arc::new(service);
    thread::Builder::new()
        .name("cais-reference-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let service = Arc::clone(&service);
                let _ = thread::Builder::new()
                    .name("cais-reference-conn".into())
                    .spawn(move || {
                        let Ok(peer) = stream.peer_addr() else { return };
                        let mut conn = service.on_connect(peer);
                        let _ = serve_connection(service.as_ref(), &mut conn, &mut stream);
                        service.on_disconnect(&mut conn);
                    });
            }
        })?;
    Ok(local_addr)
}

fn serve_connection<S: FrameService>(
    service: &S,
    conn: &mut S::Conn,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let mut out = Outbox::default();
    loop {
        // Wait for a request's first byte under the short timeout, so an
        // idle connection still gets polled; the frame itself is read
        // under a long one, so a timeout never splits it.
        stream.set_read_timeout(Some(POLL_EVERY))?;
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return Ok(()),
            Ok(_) => {
                stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                let (header, payload) = read_frame_traced(stream)?;
                service.on_frame(conn, header, payload, &mut out);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                service.poll(conn, Instant::now(), &mut out);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        let (replies, close) = out.take();
        for (header, payload) in replies {
            write_frame_traced(stream, header, payload.as_slice())?;
        }
        if close {
            return Ok(());
        }
    }
}
