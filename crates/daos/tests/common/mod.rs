//! The reference arm of the ring equivalence suites: one op of a
//! [`ClientOp`] tape issued as the serial client call.

use ros2_daos::{
    ClientOp, ClientOpResult, DaosClient, EngineCluster, FetchOp, ObjectClient, RecordKey, UpdateOp,
};
use ros2_fabric::Fabric;
use ros2_sim::SimTime;

/// Runs `op` start to finish through [`ObjectClient::update`] /
/// [`ObjectClient::fetch`] on job 0 — what a ring submission must be
/// functionally identical to.
pub fn serial_op(
    c: &mut DaosClient,
    f: &mut Fabric,
    cl: &mut EngineCluster,
    now: SimTime,
    op: ClientOp,
) -> ClientOpResult {
    match op {
        ClientOp::Update(UpdateOp {
            key: RecordKey { oid, dkey, akey },
            kind,
            data,
        }) => ClientOpResult::Update(c.update(f, cl, now, 0, oid, dkey, akey, kind, data)),
        ClientOp::Fetch(FetchOp {
            key: RecordKey { oid, dkey, akey },
            kind,
            epoch,
            len,
        }) => ClientOpResult::Fetch(c.fetch(f, cl, now, 0, oid, dkey, akey, kind, epoch, len)),
    }
}
