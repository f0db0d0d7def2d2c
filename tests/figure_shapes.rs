//! The load-bearing reproduction claims: every paper figure's *shape* (who
//! wins, by roughly what factor, where the plateaus fall) and the three
//! ablations' model claims, asserted as tests. Each test values a claim
//! group of `ros2_fio::figures` on the same cells the figure binaries
//! print, under the same windows, and asserts every claim in its band.

use ros2::fio::figures::{ablation, fig3, fig4, fig5, show, Check};

fn assert_in_band(checks: Vec<Check>) {
    for (claim, model) in checks {
        let band = show(&claim.band);
        assert!(
            claim.band.contains(&model),
            "{}: {model} outside {band}",
            claim.what
        );
    }
}

/// One test per claim group.
macro_rules! claim_tests {
    ($($test:ident: $checks:expr;)*) => {$(
        #[test]
        fn $test() {
            assert_in_band($checks);
        }
    )*};
}

claim_tests! {
    fig3_one_job_saturates_large_block_reads: fig3::saturation(fig3::cell);
    fig3_write_plateau_near_2_7: fig3::write_plateau(fig3::cell);
    fig3_four_ssds_scale_large_blocks_nearly_linearly: fig3::four_ssds(fig3::cell);
    fig3_small_block_iops_grow_with_jobs_to_software_limit: fig3::iops(fig3::cell);
    fig4_large_blocks_transport_agnostic_once_cores_suffice: fig4::large_blocks(fig4::cell);
    fig4_small_blocks_rdma_dominates_and_scales: fig4::small_blocks(fig4::cell);
    fig5_host_tcp_bands: fig5::host_tcp(fig5::cell);
    fig5_dpu_tcp_receive_path_bottleneck: fig5::dpu_tcp(fig5::cell);
    fig5_rdma_erases_the_dpu_penalty_at_1m: fig5::rdma_1m(fig5::cell);
    fig5_rdma_4k_dpu_gap_and_tcp_multiplier: fig5::rdma_4k(fig5::cell);
    ablation_rendezvous_eager_wins_small_and_rendezvous_wins_large:
        ablation::rendezvous_claims(ablation::one_way_us);
    ablation_isolation_crypto_is_cheap_and_the_cap_paces_the_pass: ablation::isolation_claims(
        &ablation::ISOLATION_ARMS.map(|(_, service, cap)| ablation::isolation(service, cap)),
    );
}

#[test]
fn ablation_gpudirect_saves_exactly_the_staging_copy() {
    let arms = ablation::GPUDIRECT_ARMS.map(|(_, domain)| ablation::gpudirect(domain));
    let [staged, direct] = arms;
    // Every read saves the same copy: the sums differ by it, to the
    // nanosecond.
    assert_eq!(
        staged.latency_sum - direct.latency_sum,
        ablation::staging_cost(1 << 20) * ablation::READS
    );
    assert_in_band(ablation::gpudirect_claims(&arms));
}
