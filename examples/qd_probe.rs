//! Dev probe: QD scaling of the client with the op ring off (serial) and
//! on (pipelined), host + DPU arms — the `ros2_fio::figures::qd` cell.
use ros2_fio::figures::qd::{cell, BLOCKS, DEPTHS};

fn main() {
    for pipelined in [false, true] {
        println!("--- pipelined = {pipelined} ---");
        for bs in BLOCKS {
            for qd in DEPTHS {
                let c = cell(bs, qd, pipelined);
                let (h, d) = (c.host.gib_s, c.dpu.gib_s);
                println!(
                    "bs={:>7} qd={:>2}  host {:>8.1} MiB/s  dpu {:>8.1} MiB/s  ratio {:.3}",
                    bs,
                    qd,
                    h * 1024.0,
                    d * 1024.0,
                    d / h.max(1e-12)
                );
            }
        }
    }
}
