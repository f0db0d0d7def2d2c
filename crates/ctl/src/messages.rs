//! The control-plane message schema: session setup (hello, pool connect,
//! container open, DFS mount), the host→DPU submission doorbell, and the
//! pool-map and background-service events. §3.2 also lists directory ops
//! and capability exchange; here DFS directory ops are data-plane single
//! values, and the DPU tenant manager scopes the rkeys a tenant may use,
//! so no message carries either.

use bytes::Bytes;

use crate::wire::{WireError, WireReader, WireWriter};

/// What changes from one I/O of a file to the next: the part of a
/// data-plane descriptor the host contributes per op. Everything else —
/// container, object class, replica route, pool-map revision — sits in the
/// object's descriptor template on the DPU, so template ‖ patch is a whole
/// descriptor and the NIC can send it without a core looking at either.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IoPatch {
    /// Update (true) or fetch.
    pub write: bool,
    /// Low word of the object id: which template the patch completes.
    pub object: u64,
    /// Chunk index (the record's distribution key).
    pub chunk: u64,
    /// Byte offset inside the chunk.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl IoPatch {
    /// Encoded size of one patch.
    pub const WIRE_LEN: usize = 1 + 4 * 8;
}

/// Control-plane requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlRequest {
    /// Session establishment with tenant credentials.
    Hello {
        /// Tenant identity.
        tenant: String,
        /// Shared-secret digest (simulated auth).
        auth: Bytes,
    },
    /// Connect to a DAOS pool.
    PoolConnect {
        /// Pool label.
        pool: String,
    },
    /// Open a container within the connected pool.
    ContOpen {
        /// Container label.
        container: String,
    },
    /// Mount the DFS namespace of an open container.
    DfsMount,
    /// Tear down the session.
    Goodbye,
    /// Host→DPU data-plane submit: announce `ops` queued I/Os totalling
    /// `bytes` payload bytes. The descriptor is all the host contributes to
    /// an offloaded I/O — staging, transfer, and verification run on the
    /// DPU.
    IoSubmit {
        /// Number of I/Os in the submission.
        ops: u32,
        /// Total payload bytes across the submission.
        bytes: u64,
    },
    /// [`Self::IoSubmit`] made self-sufficient: the same posted doorbell
    /// write, announcing `bytes` payload bytes, followed by one patch per
    /// queued I/O. What a lane whose NIC submits descriptors is rung with —
    /// the frame alone, with the templates already on the DPU, says
    /// everything a descriptor needs.
    IoDoorbell {
        /// Total payload bytes across the submission.
        bytes: u64,
        /// One patch per I/O, in submission order.
        patches: Vec<IoPatch>,
    },
    /// RAS-style health event on the control plane: engine `engine` left
    /// the pool (killed/unreachable) and the pool map moved to
    /// `map_version`. Clients react by routing around the dead engine;
    /// rebuild restores redundancy (§3.1's cluster shape).
    RasEvent {
        /// Pool-map slot of the affected engine.
        engine: u32,
        /// The bumped pool-map revision.
        map_version: u64,
    },
    /// Explicit pool-map pull: a client whose request was fenced with a
    /// stale-map error (or whose RAS stream is lagging) asks the control
    /// plane for the authoritative current map. Answered with
    /// [`ControlResponse::MapUpdate`].
    MapQuery,
    /// Background-service report: a coordinated aggregation pass ran for
    /// `container` at epoch `boundary` on every up replica (so their
    /// stores are byte-comparable below it).
    AggregationReport {
        /// The aggregated container.
        container: String,
        /// The cluster-safe boundary every replica aggregated at.
        boundary: u64,
    },
    /// Background-service report: a scrub pass finished. A RAS-style
    /// control event — `found > repaired` means corruption is standing
    /// (no healthy replica to repair from) and operators must act.
    ScrubReport {
        /// Replica-object mismatches detected this pass.
        found: u64,
        /// Mismatches repaired from a healthy replica this pass.
        repaired: u64,
    },
    /// RAS **push** distribution of a pool-map revision: the control plane
    /// encodes the new map once and fans the same wire bytes out to every
    /// subscribed client (unlike [`ControlRequest::MapQuery`], which is a
    /// per-client pull). Same payload as [`ControlResponse::MapUpdate`] —
    /// revision, one health byte per slot, and the pending-kill slot — so
    /// the receiver reconstructs degraded routing exactly; delivery
    /// latency is per-subscriber and fault-injectable.
    MapPush {
        /// The map revision being distributed.
        version: u64,
        /// Per-slot health, one byte per pool-map slot (1 = up).
        healths: Bytes,
        /// Slot of an unrebuilt kill, or `u32::MAX` for none.
        pending_dead: u32,
    },
}

/// Control-plane responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlResponse {
    /// Session established; carries the session token.
    Welcome {
        /// Opaque session token.
        session: u64,
    },
    /// Generic success.
    Ok,
    /// Pool/container handle.
    Handle {
        /// Opaque handle value.
        handle: u64,
    },
    /// Failure with an error string.
    Error {
        /// Human-readable reason.
        reason: String,
    },
    /// A completion record: what the DPU posts into host-visible memory
    /// for submitted I/Os (`ControlChannel::post_reply`).
    IoDone {
        /// I/Os this record completes.
        ops: u32,
        /// Recovery-ladder re-stages the DPU performed on the host's
        /// behalf while completing those I/Os (surfaced so the host can
        /// account retry behavior without owning the data plane).
        retries: u32,
    },
    /// The authoritative pool map, answering [`ControlRequest::MapQuery`]
    /// (and carried by asynchronously delivered RAS pushes): the revision,
    /// one health byte per slot (1 = up), and the slot of an unrebuilt
    /// kill (`u32::MAX` = none) so the receiver can reconstruct degraded
    /// routing exactly.
    MapUpdate {
        /// The map revision.
        version: u64,
        /// Per-slot health, one byte per pool-map slot (1 = up).
        healths: Bytes,
        /// Slot of an unrebuilt kill, or `u32::MAX` for none.
        pending_dead: u32,
    },
}

impl ControlRequest {
    /// Encodes to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        match self {
            ControlRequest::Hello { tenant, auth } => {
                w.u8(0).string(tenant).blob(auth);
            }
            ControlRequest::PoolConnect { pool } => {
                w.u8(1).string(pool);
            }
            ControlRequest::ContOpen { container } => {
                w.u8(2).string(container);
            }
            ControlRequest::DfsMount => {
                w.u8(3);
            }
            // Tags 4-6 were a namespace relay, a capability request and a
            // QoS request that nothing sent; they are not reused.
            ControlRequest::Goodbye => {
                w.u8(7);
            }
            ControlRequest::IoSubmit { ops, bytes } => {
                w.u8(8).u32(*ops).u64(*bytes);
            }
            // Tag 9 was the synchronous completion poll; completion
            // records are posted now, and the tag is not reused.
            ControlRequest::RasEvent {
                engine,
                map_version,
            } => {
                w.u8(10).u32(*engine).u64(*map_version);
            }
            ControlRequest::MapQuery => {
                w.u8(11);
            }
            ControlRequest::AggregationReport {
                container,
                boundary,
            } => {
                w.u8(12).string(container).u64(*boundary);
            }
            ControlRequest::ScrubReport { found, repaired } => {
                w.u8(13).u64(*found).u64(*repaired);
            }
            ControlRequest::MapPush {
                version,
                healths,
                pending_dead,
            } => {
                w.u8(14).u64(*version).blob(healths).u32(*pending_dead);
            }
            ControlRequest::IoDoorbell { bytes, patches } => {
                w.u8(15).u32(patches.len() as u32).u64(*bytes);
                for p in patches {
                    w.boolean(p.write)
                        .u64(p.object)
                        .u64(p.chunk)
                        .u64(p.offset)
                        .u64(p.len);
                }
            }
        }
        w.finish()
    }

    /// Length of [`Self::encode`]'s output, computed without building the
    /// frame — the channel's timing model needs only the size.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            ControlRequest::Hello { tenant, auth } => 4 + tenant.len() + 4 + auth.len(),
            ControlRequest::PoolConnect { pool } => 4 + pool.len(),
            ControlRequest::ContOpen { container } => 4 + container.len(),
            ControlRequest::ScrubReport { .. } => 16,
            ControlRequest::IoSubmit { .. } | ControlRequest::RasEvent { .. } => 12,
            ControlRequest::DfsMount | ControlRequest::Goodbye | ControlRequest::MapQuery => 0,
            ControlRequest::AggregationReport { container, .. } => 4 + container.len() + 8,
            ControlRequest::MapPush { healths, .. } => 8 + 4 + healths.len() + 4,
            ControlRequest::IoDoorbell { patches, .. } => 12 + patches.len() * IoPatch::WIRE_LEN,
        }
    }

    /// Length of the frame's head: all of it, except for a doorbell, whose
    /// head is the [`Self::IoSubmit`] it extends (tag, op count, payload
    /// bytes) and whose patches trail it. A posted write lands in order, so
    /// the endpoint has the head this many bytes into the frame.
    pub fn head_len(&self) -> usize {
        match self {
            ControlRequest::IoDoorbell { patches, .. } => {
                self.encoded_len() - patches.len() * IoPatch::WIRE_LEN
            }
            _ => self.encoded_len(),
        }
    }

    /// Decodes from wire bytes.
    pub fn decode(buf: Bytes) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        Ok(match r.u8()? {
            0 => ControlRequest::Hello {
                tenant: r.string()?,
                auth: r.blob()?,
            },
            1 => ControlRequest::PoolConnect { pool: r.string()? },
            2 => ControlRequest::ContOpen {
                container: r.string()?,
            },
            3 => ControlRequest::DfsMount,
            7 => ControlRequest::Goodbye,
            8 => ControlRequest::IoSubmit {
                ops: r.u32()?,
                bytes: r.u64()?,
            },
            10 => ControlRequest::RasEvent {
                engine: r.u32()?,
                map_version: r.u64()?,
            },
            11 => ControlRequest::MapQuery,
            12 => ControlRequest::AggregationReport {
                container: r.string()?,
                boundary: r.u64()?,
            },
            13 => ControlRequest::ScrubReport {
                found: r.u64()?,
                repaired: r.u64()?,
            },
            14 => ControlRequest::MapPush {
                version: r.u64()?,
                healths: r.blob()?,
                pending_dead: r.u32()?,
            },
            15 => {
                let ops = r.u32()? as usize;
                let bytes = r.u64()?;
                // The count is the sender's word: never allocate past what
                // the frame can actually hold.
                let mut patches = Vec::with_capacity(ops.min(r.remaining() / IoPatch::WIRE_LEN));
                for _ in 0..ops {
                    patches.push(IoPatch {
                        write: r.boolean()?,
                        object: r.u64()?,
                        chunk: r.u64()?,
                        offset: r.u64()?,
                        len: r.u64()?,
                    });
                }
                ControlRequest::IoDoorbell { bytes, patches }
            }
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl ControlResponse {
    /// Encodes to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        match self {
            ControlResponse::Welcome { session } => {
                w.u8(0).u64(*session);
            }
            ControlResponse::Ok => {
                w.u8(1);
            }
            ControlResponse::Handle { handle } => {
                w.u8(2).u64(*handle);
            }
            // Tags 3-5 answered the retired requests 4-6; they are not
            // reused.
            ControlResponse::Error { reason } => {
                w.u8(6).string(reason);
            }
            ControlResponse::IoDone { ops, retries } => {
                w.u8(7).u32(*ops).u32(*retries);
            }
            ControlResponse::MapUpdate {
                version,
                healths,
                pending_dead,
            } => {
                w.u8(8).u64(*version).blob(healths).u32(*pending_dead);
            }
        }
        w.finish()
    }

    /// Length of [`Self::encode`]'s output, computed without building the
    /// frame.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            ControlResponse::Ok => 0,
            ControlResponse::Welcome { .. }
            | ControlResponse::Handle { .. }
            | ControlResponse::IoDone { .. } => 8,
            ControlResponse::Error { reason } => 4 + reason.len(),
            ControlResponse::MapUpdate { healths, .. } => 8 + 4 + healths.len() + 4,
        }
    }

    /// Decodes from wire bytes.
    pub fn decode(buf: Bytes) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        Ok(match r.u8()? {
            0 => ControlResponse::Welcome { session: r.u64()? },
            1 => ControlResponse::Ok,
            2 => ControlResponse::Handle { handle: r.u64()? },
            6 => ControlResponse::Error {
                reason: r.string()?,
            },
            7 => ControlResponse::IoDone {
                ops: r.u32()?,
                retries: r.u32()?,
            },
            8 => ControlResponse::MapUpdate {
                version: r.u64()?,
                healths: r.blob()?,
                pending_dead: r.u32()?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: ControlRequest) {
        let encoded = req.encode();
        assert_eq!(req.encoded_len(), encoded.len(), "{req:?}");
        assert_eq!(ControlRequest::decode(encoded).unwrap(), req);
    }

    fn round_trip_resp(resp: ControlResponse) {
        let encoded = resp.encode();
        assert_eq!(resp.encoded_len(), encoded.len(), "{resp:?}");
        assert_eq!(ControlResponse::decode(encoded).unwrap(), resp);
    }

    #[test]
    fn all_requests_round_trip() {
        round_trip_req(ControlRequest::Hello {
            tenant: "llm-train".into(),
            auth: Bytes::from_static(b"secret-digest"),
        });
        round_trip_req(ControlRequest::PoolConnect {
            pool: "pool0".into(),
        });
        round_trip_req(ControlRequest::ContOpen {
            container: "posix-cont".into(),
        });
        round_trip_req(ControlRequest::DfsMount);
        round_trip_req(ControlRequest::Goodbye);
        round_trip_req(ControlRequest::IoSubmit {
            ops: 32,
            bytes: 32 << 20,
        });
        let patch = |write, chunk| IoPatch {
            write,
            object: 0x51,
            chunk,
            offset: 40 << 10,
            len: 4 << 10,
        };
        round_trip_req(ControlRequest::IoDoorbell {
            bytes: 8 << 10,
            patches: vec![patch(false, 3), patch(true, 9)],
        });
        round_trip_req(ControlRequest::IoDoorbell {
            bytes: 0,
            patches: Vec::new(),
        });
        round_trip_req(ControlRequest::RasEvent {
            engine: 3,
            map_version: 17,
        });
        round_trip_req(ControlRequest::MapQuery);
        round_trip_req(ControlRequest::AggregationReport {
            container: "posix-cont".into(),
            boundary: 4242,
        });
        round_trip_req(ControlRequest::ScrubReport {
            found: 3,
            repaired: 2,
        });
        round_trip_req(ControlRequest::MapPush {
            version: 7,
            healths: Bytes::from_static(&[1, 1, 0, 1]),
            pending_dead: 2,
        });
    }

    #[test]
    fn all_responses_round_trip() {
        round_trip_resp(ControlResponse::Welcome { session: 99 });
        round_trip_resp(ControlResponse::Ok);
        round_trip_resp(ControlResponse::Handle { handle: 0xF00D });
        round_trip_resp(ControlResponse::Error {
            reason: "no such pool".into(),
        });
        round_trip_resp(ControlResponse::IoDone {
            ops: 32,
            retries: 2,
        });
        round_trip_resp(ControlResponse::MapUpdate {
            version: 3,
            healths: Bytes::from_static(&[1, 0, 1, 1]),
            pending_dead: 1,
        });
    }

    /// A doorbell frame that promises more patches than it carries is a
    /// truncated frame, and its count is never trusted for an allocation.
    #[test]
    fn a_doorbell_frame_short_of_its_patches_is_rejected() {
        let mut w = WireWriter::new();
        w.u8(15).u32(u32::MAX).u64(4096);
        w.boolean(true).u64(1).u64(2).u64(3).u64(4);
        assert!(ControlRequest::decode(w.finish()).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut w = WireWriter::new();
        w.u8(200);
        assert_eq!(
            ControlRequest::decode(w.finish()).unwrap_err(),
            WireError::BadTag(200)
        );
    }
}
