//! A nonblocking client connection for the open-loop workloads.
//!
//! `TransportClient` blocks in `read`, and a socket read timeout on this
//! kernel fires on 4 ms jiffies (8 ms in practice), so it cannot issue ops on
//! a schedule while also receiving.  This speaks the same protocol through
//! the system's public `wire` / `FrameBuffer` / `DeltaTracker` API on a
//! nonblocking socket, and waits with `ppoll(2)`, whose timeout is a
//! high-resolution timer: the generator sleeps until data arrives or an op
//! is nearly due, then spins the last stretch.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration as StdDuration, Instant};

use crate::sut::{
    decode_server_frame, encode_client_frame, ClientFrame, ClientMessage, DeltaTracker,
    FrameBuffer, PredictionSummary, ServerEvent, ServerFrame,
};

/// How long before a deadline the generator stops sleeping and spins:
/// `ppoll` wakes up to ~80 µs late here (timer slack plus wake-up).
const SPIN: StdDuration = StdDuration::from_micros(400);

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: std::ffi::c_short = 0x001;

extern "C" {
    // int ppoll(struct pollfd *fds, nfds_t nfds, const struct timespec *tmo,
    //           const sigset_t *sigmask);  -- 64-bit Linux layouts above.
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

pub struct RawClient {
    stream: TcpStream,
    inbuf: FrameBuffer,
    tracker: DeltaTracker,
    scratch: Vec<u8>,
    pub uplink_bytes: u64,
    pub full_updates: u64,
    pub delta_updates: u64,
    pub resyncs: u64,
    pub decode_errors: u64,
}

impl RawClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<RawClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(RawClient {
            stream,
            inbuf: FrameBuffer::new(),
            // Toy summaries never beat the default 0.5 ratio; always prefer
            // the delta frame, as the repo's own transport tests do.
            tracker: DeltaTracker::new().with_max_delta_ratio(1.0),
            scratch: vec![0u8; 256 * 1024],
            uplink_bytes: 0,
            full_updates: 0,
            delta_updates: 0,
            resyncs: 0,
            decode_errors: 0,
        })
    }

    /// Writes one frame, spinning through `WouldBlock` (uplink frames of the
    /// open-loop workloads are far smaller than the socket buffer).
    pub fn send_frame(&mut self, frame: &ClientFrame) -> std::io::Result<()> {
        let bytes = encode_client_frame(frame);
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(e),
            }
        }
        self.uplink_bytes += bytes.len() as u64;
        Ok(())
    }

    pub fn send_message(&mut self, message: ClientMessage) -> std::io::Result<()> {
        self.send_frame(&ClientFrame::Message(message))
    }

    /// Ships a summary through the delta tracker, like
    /// `TransportClient::send_prediction`.
    pub fn send_prediction(&mut self, summary: &PredictionSummary) -> std::io::Result<()> {
        let message = self.tracker.encode(summary);
        if matches!(message, ClientMessage::PredictorDelta(_)) {
            self.delta_updates += 1;
        } else {
            self.full_updates += 1;
        }
        self.send_message(message)
    }

    /// Reads whatever the socket holds and hands every decoded event to
    /// `on_event`.  Returns `Ok(false)` once the server closed the stream.
    pub fn drain(&mut self, mut on_event: impl FnMut(ServerEvent)) -> std::io::Result<bool> {
        loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => self.inbuf.extend(&self.scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        loop {
            let body = match self.inbuf.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => return Ok(true),
                Err(_) => {
                    self.decode_errors += 1;
                    return Err(ErrorKind::InvalidData.into());
                }
            };
            match decode_server_frame(&body) {
                Ok(ServerFrame::Event { event, .. }) => {
                    if matches!(event, ServerEvent::Resync { .. }) {
                        self.resyncs += 1;
                        self.tracker.reset();
                    }
                    on_event(event);
                }
                Ok(ServerFrame::Welcome { .. }) => {}
                Err(_) => self.decode_errors += 1,
            }
        }
    }

    /// Sleeps until the socket is readable or `deadline` is near (whichever
    /// comes first); within [`SPIN`] of the deadline it returns at once so
    /// the caller's loop spins.
    pub fn wait_readable(&self, deadline: Instant) {
        let Some(budget) = deadline
            .checked_duration_since(Instant::now())
            .and_then(|left| left.checked_sub(SPIN))
        else {
            return;
        };
        let mut fd = PollFd {
            fd: self.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let timeout = Timespec {
            tv_sec: budget.as_secs() as i64,
            tv_nsec: i64::from(budget.subsec_nanos()),
        };
        // SAFETY: `fd` and `timeout` are live, correctly laid out locals for
        // the duration of the call, `nfds` is 1 matching the one `PollFd`,
        // and a null sigmask is allowed (it makes `ppoll` behave as `poll`).
        // The descriptor belongs to `self.stream`, which outlives the call.
        // A failure (e.g. EINTR) only means we return early; the caller
        // re-checks the clock and the socket.
        unsafe {
            ppoll(&mut fd, 1, &timeout, std::ptr::null());
        }
    }
}
