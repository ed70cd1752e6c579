//! Typed client/server protocol.
//!
//! Khameleon replaces the classic request/response loop with two one-way
//! streams: the client periodically ships compact predictor state and
//! receive-rate reports *up*, and the server pushes response blocks *down*
//! (§3.2).  This module gives those streams a typed vocabulary so every
//! transport — the discrete-event simulator, the threaded `live_pipeline`
//! example, and future network servers — speaks the same protocol instead of
//! each one calling ad-hoc methods.
//!
//! [`ClientMessage`] is everything a client may send; [`ServerEvent`] is
//! everything a server may emit.  Both are plain enums so they can be moved
//! across channels, queued in an event loop, or serialized by a transport
//! layer without the server types being involved.

use std::fmt;

use crate::block::Block;
use crate::delta::PredictionDelta;
use crate::distribution::PredictionSummary;
use crate::predictor::PredictorState;
use crate::types::Bandwidth;

/// Identifies one client session within a server process.
///
/// Ids are allocated by the [`SessionManager`](crate::session::SessionManager)
/// and are never reused within its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Everything a client can say to the server (the uplink of §3.2).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// A fresh compact predictor state; the server decodes it with its
    /// [`ServerPredictor`](crate::predictor::ServerPredictor) component and
    /// re-plans the unsent tail of the schedule (§5.3.2).
    Predictor(PredictorState),
    /// A complete, already-decoded prediction summary tagged with a
    /// generation id.  Installs the server's per-session shadow summary
    /// (see [`ShadowSummary`](crate::delta::ShadowSummary)), making
    /// subsequent [`PredictorDelta`](ClientMessage::PredictorDelta)
    /// messages applicable against it.
    PredictorFull {
        /// The client's generation counter for this summary; deltas name it
        /// as their base.
        generation: u64,
        /// The full prediction summary.
        summary: PredictionSummary,
    },
    /// Only the entries that changed since the summary at
    /// [`base_generation`](crate::delta::PredictionDelta::base_generation):
    /// the `O(Δ)` uplink path.  The server patches its shadow summary and
    /// hands the scheduler a precomputed changed-set, so neither the wire
    /// nor the diff scan pays `O(m · slices)`.  A generation mismatch makes
    /// the server answer [`ServerEvent::Resync`] instead of applying it.
    PredictorDelta(PredictionDelta),
    /// The receive rate the client measured since its last report, used for
    /// server-side bandwidth estimation (§5.4).
    RateReport(Bandwidth),
    /// The client is going away; the server should release its session.
    Close,
}

/// Everything the server can push to (or about) a client session.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerEvent {
    /// The next block on the wire for `session`.
    Block {
        /// The session the block belongs to.
        session: SessionId,
        /// The block itself (metadata plus optional payload bytes).
        block: Block,
    },
    /// No session has useful work until new input arrives: everything it
    /// values is sent, saturated or refused by the backend.  Asking again
    /// before a protocol message or a bandwidth change yields `Idle` again.
    Idle,
    /// `session` was closed (in response to [`ClientMessage::Close`] or an
    /// explicit removal) and will emit no further blocks.
    Closed {
        /// The session that ended.
        session: SessionId,
    },
    /// A [`ClientMessage::PredictorDelta`] from `session` named a base
    /// generation the server does not hold (lost state, reordered install,
    /// or a server-side restart).  The client must resend a
    /// [`ClientMessage::PredictorFull`]; the schedule keeps running on the
    /// last applied prediction in the meantime.
    Resync {
        /// The session whose delta could not be applied.
        session: SessionId,
    },
    /// The server is shedding load and refused to admit a new session
    /// (its session or park table is full).  The connection is closed
    /// after this event; the client should back off and retry later.
    Busy,
}

impl ServerEvent {
    /// The session this event concerns, if any.
    pub fn session(&self) -> Option<SessionId> {
        match self {
            ServerEvent::Block { session, .. }
            | ServerEvent::Closed { session }
            | ServerEvent::Resync { session } => Some(*session),
            ServerEvent::Idle | ServerEvent::Busy => None,
        }
    }

    /// Whether this is an [`ServerEvent::Idle`] event.
    pub fn is_idle(&self) -> bool {
        matches!(self, ServerEvent::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RequestId;

    #[test]
    fn session_ids_display_compactly() {
        assert_eq!(SessionId(3).to_string(), "s3");
    }

    #[test]
    fn events_expose_their_session() {
        assert_eq!(ServerEvent::Idle.session(), None);
        assert!(ServerEvent::Idle.is_idle());
        assert_eq!(ServerEvent::Busy.session(), None);
        assert!(!ServerEvent::Busy.is_idle());
        assert_eq!(
            ServerEvent::Closed {
                session: SessionId(9)
            }
            .session(),
            Some(SessionId(9))
        );
        let _ = ClientMessage::Predictor(PredictorState::LastRequest(RequestId(1)));
    }
}
