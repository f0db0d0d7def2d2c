//! The control channel: session authentication and gRPC-class call timing.
//!
//! Control traffic is "few and latency-insensitive relative to bulk I/O"
//! (§3.2); it crosses a management path (HTTP/2 over kernel TCP), so each
//! call pays a fixed round-trip latency plus a per-byte serialization cost.
//! The channel also owns session state: Hello must precede anything else,
//! and tenant identity sticks to the session (the DPU enforces per-tenant
//! policy with it).

use bytes::Bytes;
use ros2_sim::{FastMap, FastSet, SimDuration, SimRng, SimTime};

use crate::messages::{ControlRequest, ControlResponse};

/// Timing model for one control call.
#[derive(Copy, Clone, Debug)]
pub struct ControlModel {
    /// Fixed round-trip latency (HTTP/2 + TCP + scheduling).
    pub rtt: SimDuration,
    /// Serialization cost per payload byte (ps/B), both directions.
    pub ps_per_byte: u64,
    /// How long a caller waits for a reply before declaring the peer
    /// wedged and giving up with [`ControlError::Timeout`] — a call
    /// against a stalled endpoint costs exactly this long, never forever.
    pub deadline: SimDuration,
}

impl ControlModel {
    /// Default gRPC-over-management-network calibration (~150 µs RTT),
    /// with a generous 25 ms deadline (management traffic crosses a
    /// kernel TCP stack with real scheduling jitter).
    pub fn grpc_default() -> Self {
        ControlModel {
            rtt: SimDuration::from_micros(150),
            ps_per_byte: 900,
            deadline: SimDuration::from_millis(25),
        }
    }

    /// The host↔DPU I/O-forwarding doorbell: the two legs the host pays per
    /// offloaded data-plane op. Unlike the management gRPC channel it
    /// crosses only the PCIe link between the host CPU and the BlueField-3,
    /// and neither leg waits for an answer: the submit is a posted write of
    /// the descriptor plus a doorbell ([`ControlChannel::post`]), the
    /// completion a posted write of a record into host-visible memory that
    /// the host polls locally ([`ControlChannel::post_reply`]). Each leg
    /// therefore costs [`Self::one_way`] — half the ~2 µs round trip, not
    /// ~150 µs — and a 200 µs deadline bounds how long a host poll can spin
    /// on a wedged lane.
    pub fn host_doorbell() -> Self {
        ControlModel {
            rtt: SimDuration::from_micros(2),
            ps_per_byte: 120,
            deadline: SimDuration::from_micros(200),
        }
    }

    /// Latency of one direction of the link: half the round trip. What a
    /// posted write costs, since nothing comes back.
    pub fn one_way(&self) -> SimDuration {
        self.rtt / 2
    }
}

/// Errors the channel itself can produce (before the application handler).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ControlError {
    /// A non-Hello call arrived on an unauthenticated session.
    NotAuthenticated,
    /// Authentication failed.
    AuthFailed,
    /// The session was closed.
    SessionClosed,
    /// No reply arrived within [`ControlModel::deadline`] — the peer (or
    /// its lane) is wedged. The caller observes a bounded wait, never an
    /// infinite spin.
    Timeout,
}

/// One live session's state.
#[derive(Clone, Debug)]
pub struct Session {
    /// Opaque token the client presents (issued at Welcome).
    pub token: u64,
    /// Authenticated tenant identity.
    pub tenant: String,
    /// Whether Goodbye was processed.
    pub closed: bool,
    /// Completed calls on this session.
    pub calls: u64,
}

/// The control channel endpoint (server side).
#[derive(Debug)]
pub struct ControlChannel {
    model: ControlModel,
    sessions: FastMap<u64, Session>,
    rng: SimRng,
    /// A registry of acceptable tenant credentials (tenant → digest).
    credentials: FastMap<String, Bytes>,
    /// Fault injection: sessions whose servicing endpoint is wedged —
    /// calls against them never get a reply and fail at the deadline.
    stalled: FastSet<u64>,
}

impl ControlChannel {
    /// Creates a channel with the given timing model.
    pub fn new(model: ControlModel, rng: SimRng) -> Self {
        ControlChannel {
            model,
            sessions: FastMap::default(),
            rng,
            credentials: FastMap::default(),
            stalled: FastSet::default(),
        }
    }

    /// Fault injection: wedges (or revives) the endpoint servicing
    /// `token`'s calls. While wedged, every call on the session burns the
    /// model deadline and returns [`ControlError::Timeout`].
    pub fn set_stalled(&mut self, token: u64, on: bool) {
        if on {
            self.stalled.insert(token);
        } else {
            self.stalled.remove(&token);
        }
    }

    /// Registers a tenant credential (provisioning).
    pub fn add_tenant(&mut self, tenant: impl Into<String>, digest: Bytes) {
        self.credentials.insert(tenant.into(), digest);
    }

    /// The instant a call issued at `now` with `req_len`/`resp_len` payload
    /// completes.
    fn call_done_at(&self, now: SimTime, req_len: usize, resp_len: usize) -> SimTime {
        let bytes = (req_len + resp_len) as u64;
        now + self.model.rtt + SimDuration::from_nanos(bytes * self.model.ps_per_byte / 1000)
    }

    /// The instant a posted frame of `len` bytes entering the link at `now`
    /// has landed on the far side.
    fn posted_at(&self, now: SimTime, len: usize) -> SimTime {
        now + self.model.one_way()
            + SimDuration::from_nanos(len as u64 * self.model.ps_per_byte / 1000)
    }

    /// The instant the head of `req` ([`ControlRequest::head_len`]), posted
    /// at `now`, has landed: for a doorbell, when the endpoint knows what an
    /// `IoSubmit` would have told it, the patches still on their way.
    pub fn head_landed_at(&self, now: SimTime, req: &ControlRequest) -> SimTime {
        self.posted_at(now, req.head_len())
    }

    /// Posts `req` on `session`: a write the caller does not wait on.
    /// Returns the instant the frame is live at the endpoint. Nobody
    /// answers a posted write, so a wedged endpoint is found out by whoever
    /// then polls for its reply record: no record appears, and that poller
    /// gives up [`ControlModel::deadline`] after `now` with
    /// [`ControlError::Timeout`] — the instant returned beside the error.
    pub fn post(
        &mut self,
        now: SimTime,
        session: u64,
        req: &ControlRequest,
    ) -> (SimTime, Result<(), ControlError>) {
        if self.stalled.contains(&session) {
            return (now + self.model.deadline, Err(ControlError::Timeout));
        }
        let landed = self.posted_at(now, req.encoded_len());
        (landed, self.admit(Some(session), req).map(|_| ()))
    }

    /// The endpoint posts `resp`, ready at `ready`, into memory the
    /// session's caller polls. Returns the instant the caller can see it;
    /// an endpoint wedged by then never writes it, and the caller's poll
    /// times out as in [`Self::post`].
    pub fn post_reply(
        &self,
        ready: SimTime,
        session: u64,
        resp: &ControlResponse,
    ) -> (SimTime, Result<(), ControlError>) {
        if self.stalled.contains(&session) {
            return (ready + self.model.deadline, Err(ControlError::Timeout));
        }
        (self.posted_at(ready, resp.encoded_len()), Ok(()))
    }

    /// Processes the session-layer part of a call. `session` is `None` for
    /// the initial Hello. Returns the (possibly new) session token, or a
    /// session-layer error. Application-layer requests (pool, container,
    /// mount) are passed through for the caller to service.
    pub fn admit(
        &mut self,
        session: Option<u64>,
        req: &ControlRequest,
    ) -> Result<u64, ControlError> {
        match req {
            ControlRequest::Hello { tenant, auth } => {
                let expected = self.credentials.get(tenant);
                if expected != Some(auth) {
                    return Err(ControlError::AuthFailed);
                }
                let token = self.rng.next_u64();
                self.sessions.insert(
                    token,
                    Session {
                        token,
                        tenant: tenant.clone(),
                        closed: false,
                        calls: 1,
                    },
                );
                Ok(token)
            }
            _ => {
                let token = session.ok_or(ControlError::NotAuthenticated)?;
                let s = self
                    .sessions
                    .get_mut(&token)
                    .ok_or(ControlError::NotAuthenticated)?;
                if s.closed {
                    return Err(ControlError::SessionClosed);
                }
                s.calls += 1;
                if matches!(req, ControlRequest::Goodbye) {
                    s.closed = true;
                }
                Ok(token)
            }
        }
    }

    /// The session behind a token.
    pub fn session(&self, token: u64) -> Option<&Session> {
        self.sessions.get(&token)
    }

    /// A convenience wrapper: admit + timing (from the frames' encoded
    /// sizes — nothing is serialized), returning the response produced by
    /// `handler` along with its completion time.
    pub fn call<F>(
        &mut self,
        now: SimTime,
        session: Option<u64>,
        req: ControlRequest,
        handler: F,
    ) -> (SimTime, Result<(u64, ControlResponse), ControlError>)
    where
        F: FnOnce(&str, &ControlRequest) -> ControlResponse,
    {
        let req_len = req.encoded_len();
        if let Some(token) = session {
            if self.stalled.contains(&token) {
                // The request went out but the wedged peer never answers:
                // the caller eats exactly one deadline, not an infinite
                // spin, and sees a typed timeout.
                return (now + self.model.deadline, Err(ControlError::Timeout));
            }
        }
        match self.admit(session, &req) {
            Err(e) => {
                let resp = ControlResponse::Error {
                    reason: format!("{e:?}"),
                };
                let done = self.call_done_at(now, req_len, resp.encoded_len());
                (done, Err(e))
            }
            Ok(token) => {
                let resp = match &req {
                    ControlRequest::Hello { .. } => ControlResponse::Welcome { session: token },
                    _ => handler(&self.sessions[&token].tenant, &req),
                };
                let done = self.call_done_at(now, req_len, resp.encoded_len());
                (done, Ok((token, resp)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> ControlChannel {
        let mut c = ControlChannel::new(ControlModel::grpc_default(), SimRng::new(3));
        c.add_tenant("llm", Bytes::from_static(b"digest"));
        c
    }

    fn hello() -> ControlRequest {
        ControlRequest::Hello {
            tenant: "llm".into(),
            auth: Bytes::from_static(b"digest"),
        }
    }

    #[test]
    fn hello_then_call_works() {
        let mut c = channel();
        let (_, res) = c.call(SimTime::ZERO, None, hello(), |_, _| ControlResponse::Ok);
        let (token, resp) = res.unwrap();
        assert!(matches!(resp, ControlResponse::Welcome { .. }));
        let (_, res2) = c.call(
            SimTime::ZERO,
            Some(token),
            ControlRequest::DfsMount,
            |tenant, _| {
                assert_eq!(tenant, "llm");
                ControlResponse::Handle { handle: 5 }
            },
        );
        assert_eq!(res2.unwrap().1, ControlResponse::Handle { handle: 5 });
        assert_eq!(c.session(token).unwrap().calls, 2);
    }

    #[test]
    fn unauthenticated_calls_rejected() {
        let mut c = channel();
        let (_, res) = c.call(SimTime::ZERO, None, ControlRequest::DfsMount, |_, _| {
            ControlResponse::Ok
        });
        assert_eq!(res.unwrap_err(), ControlError::NotAuthenticated);
        // Bogus token as well.
        let (_, res) = c.call(SimTime::ZERO, Some(42), ControlRequest::DfsMount, |_, _| {
            ControlResponse::Ok
        });
        assert_eq!(res.unwrap_err(), ControlError::NotAuthenticated);
    }

    #[test]
    fn wrong_credentials_rejected() {
        let mut c = channel();
        let bad = ControlRequest::Hello {
            tenant: "llm".into(),
            auth: Bytes::from_static(b"wrong"),
        };
        let (_, res) = c.call(SimTime::ZERO, None, bad, |_, _| ControlResponse::Ok);
        assert_eq!(res.unwrap_err(), ControlError::AuthFailed);
        // Unknown tenant too.
        let unknown = ControlRequest::Hello {
            tenant: "nobody".into(),
            auth: Bytes::from_static(b"digest"),
        };
        let (_, res) = c.call(SimTime::ZERO, None, unknown, |_, _| ControlResponse::Ok);
        assert_eq!(res.unwrap_err(), ControlError::AuthFailed);
    }

    #[test]
    fn goodbye_closes_session() {
        let mut c = channel();
        let (_, res) = c.call(SimTime::ZERO, None, hello(), |_, _| ControlResponse::Ok);
        let token = res.unwrap().0;
        let (_, res) = c.call(
            SimTime::ZERO,
            Some(token),
            ControlRequest::Goodbye,
            |_, _| ControlResponse::Ok,
        );
        assert!(res.is_ok());
        let (_, res) = c.call(
            SimTime::ZERO,
            Some(token),
            ControlRequest::DfsMount,
            |_, _| ControlResponse::Ok,
        );
        assert_eq!(res.unwrap_err(), ControlError::SessionClosed);
    }

    #[test]
    fn stalled_session_times_out_at_the_deadline() {
        let mut c = channel();
        let (_, res) = c.call(SimTime::ZERO, None, hello(), |_, _| ControlResponse::Ok);
        let token = res.unwrap().0;
        c.set_stalled(token, true);
        let t0 = SimTime::from_micros(10);
        let (done, res) = c.call(t0, Some(token), ControlRequest::MapQuery, |_, _| {
            panic!("a wedged endpoint must never service the call")
        });
        assert_eq!(res.unwrap_err(), ControlError::Timeout);
        assert_eq!(done, t0 + ControlModel::grpc_default().deadline);
        // Reviving the endpoint restores normal service.
        c.set_stalled(token, false);
        let (_, res) = c.call(t0, Some(token), ControlRequest::MapQuery, |_, _| {
            ControlResponse::Ok
        });
        assert!(res.is_ok());
    }

    #[test]
    fn posted_legs_cost_one_way_each_and_a_wedge_costs_the_deadline() {
        let mut c = ControlChannel::new(ControlModel::host_doorbell(), SimRng::new(3));
        c.add_tenant("llm", Bytes::from_static(b"digest"));
        let (_, res) = c.call(SimTime::ZERO, None, hello(), |_, _| ControlResponse::Ok);
        let token = res.unwrap().0;
        let m = ControlModel::host_doorbell();
        assert_eq!(m.one_way() + m.one_way(), m.rtt);
        let submit = ControlRequest::IoSubmit {
            ops: 1,
            bytes: 4096,
        };
        let done = ControlResponse::IoDone { ops: 1, retries: 0 };
        let t0 = SimTime::from_micros(10);
        // 13- and 9-byte frames at 120 ps/B: 1 ns each beside the 1 us leg.
        let (landed, res) = c.post(t0, token, &submit);
        assert_eq!(
            (landed, res),
            (t0 + m.one_way() + SimDuration::from_nanos(1), Ok(()))
        );
        let (seen, res) = c.post_reply(landed, token, &done);
        assert_eq!(
            (seen, res),
            (landed + m.one_way() + SimDuration::from_nanos(1), Ok(()))
        );
        assert_eq!(
            c.session(token).unwrap().calls,
            2,
            "a post is a counted call"
        );
        // A doorbell that carries its ops' patches pays for their bytes:
        // 13 + 33 per op at 120 ps/B.
        let patch = crate::messages::IoPatch {
            write: false,
            object: 7,
            chunk: 0,
            offset: 0,
            len: 4096,
        };
        for (ops, ns) in [(1usize, 5u64), (16, 64)] {
            let bell = ControlRequest::IoDoorbell {
                bytes: 4096 * ops as u64,
                patches: vec![patch; ops],
            };
            let (landed, res) = c.post(t0, token, &bell);
            assert_eq!(
                (landed, res),
                (t0 + m.one_way() + SimDuration::from_nanos(ns), Ok(()))
            );
            // Its head is the `IoSubmit` it extends, and lands when that
            // would have.
            let head = ControlRequest::IoSubmit {
                ops: ops as u32,
                bytes: 4096 * ops as u64,
            };
            assert_eq!(bell.head_len(), head.encoded_len());
            assert_eq!(c.head_landed_at(t0, &bell), c.post(t0, token, &head).0);
            assert_eq!(c.head_landed_at(t0, &head), c.post(t0, token, &head).0);
        }
        // The pair crosses the link once each way: what *one* synchronous
        // call costs, where a submit call plus a poll call cost two.
        assert!(seen <= c.call_done_at(t0, 13, 9));
        // A wedged endpoint: the poster's wait for a record is bounded.
        c.set_stalled(token, true);
        assert_eq!(
            c.post(t0, token, &submit),
            (t0 + m.deadline, Err(ControlError::Timeout))
        );
        assert_eq!(
            c.post_reply(t0, token, &done),
            (t0 + m.deadline, Err(ControlError::Timeout))
        );
        // An unknown session is refused like any call.
        assert_eq!(
            c.post(t0, 42, &submit).1,
            Err(ControlError::NotAuthenticated)
        );
    }

    #[test]
    fn call_timing_includes_rtt_and_bytes() {
        let c = channel();
        let small = c.call_done_at(SimTime::ZERO, 10, 10);
        let big = c.call_done_at(SimTime::ZERO, 10, 100_000);
        assert!(small >= SimTime::ZERO + ControlModel::grpc_default().rtt);
        assert!(big > small);
    }
}
