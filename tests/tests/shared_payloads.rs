//! A payload its sender still holds crosses every transport as the
//! sender's allocation. `Envelope::encode` puts the header in front of it
//! without copying it (a chain), and no machine layer may flatten that
//! chain into a contiguous copy on the way: every path moves the wire
//! buffer as a handle. `bytes::flattened_chains` counts the flattens.

use bytes::Bytes;
use charm_apps::{assert_contract_clean, LayerKind};
use charm_rt::prelude::*;
use lrts_mpi::MpiLayer;
use lrts_ugni::{IntraNode, UgniConfig, UgniLayer};
use mpi_sim::MpiConfig;
use std::sync::{Arc, OnceLock};

#[derive(Default)]
struct Pe {
    got: u64,
    round: u64,
    aliased: u64,
}

/// kNeighbor on the first `ring` PEs of `c`: each owns one `bytes`-byte
/// buffer for the whole run and sends it, shared, to its `k` left and `k`
/// right neighbours; it starts the next of `rounds` rounds once all of
/// this round's messages have arrived. Returns the messages delivered and
/// how many of them reached the handler as the sender's own buffer.
fn exchange(c: &mut Cluster, ring: u32, k: u32, bytes: usize, rounds: u64) -> (u64, u64) {
    let bufs: Arc<Vec<Bytes>> = Arc::new(
        (0..ring)
            .map(|pe| Bytes::from(vec![pe as u8; bytes]))
            .collect(),
    );
    let send_round = {
        let bufs = bufs.clone();
        move |ctx: &mut PeCtx, h: HandlerId| {
            let pe = ctx.pe();
            for d in 1..=k {
                for dst in [(pe + d) % ring, (pe + ring - d) % ring] {
                    ctx.send(dst, h, bufs[pe as usize].clone());
                }
            }
        }
    };
    c.init_user(|_| Pe::default());
    let cell = Arc::new(OnceLock::new());
    let me = cell.clone();
    let next = send_round.clone();
    let recv = c.register_handler(move |ctx, env| {
        let at_sender = bufs[env.src_pe as usize].as_ptr();
        let st = ctx.user::<Pe>();
        st.got += 1;
        st.aliased += u64::from(env.payload.as_ptr() == at_sender);
        if st.got == 2 * k as u64 * st.round && st.round < rounds {
            st.round += 1;
            next(ctx, *me.get().unwrap());
        }
    });
    cell.set(recv).unwrap();
    let kick = c.register_handler(move |ctx, _| {
        ctx.user::<Pe>().round = 1;
        send_round(ctx, recv);
    });
    for pe in 0..ring {
        c.inject(0, pe, kick, Bytes::new());
    }
    c.run();
    assert_contract_clean(c);
    let (mut got, mut aliased) = (0, 0);
    for pe in 0..ring {
        let st = c.user::<Pe>(pe);
        assert_eq!(st.round, rounds, "PE {pe} finished every round");
        got += st.got;
        aliased += st.aliased;
    }
    (got, aliased)
}

/// Run the exchange at each payload size on a fresh cluster from `build`,
/// and check that every message arrived as the sender's buffer with no
/// chain flattened; `path` reads how many messages took the transport
/// under test, which must be all of them.
fn no_copy_on(
    name: &str,
    sizes: &[usize],
    build: impl Fn() -> Cluster,
    path: fn(&mut Cluster) -> u64,
) {
    const RING: u32 = 8;
    const K: u32 = 2;
    const ROUNDS: u64 = 5;
    for &bytes in sizes {
        let mut c = build();
        let flattened = bytes::flattened_chains();
        let (got, aliased) = exchange(&mut c, RING, K, bytes, ROUNDS);
        let sent = RING as u64 * 2 * K as u64 * ROUNDS;
        assert_eq!(got, sent, "{name}, {bytes} B: every message arrived");
        assert_eq!(aliased, got, "{name}, {bytes} B: a handler saw a copy");
        assert_eq!(
            bytes::flattened_chains(),
            flattened,
            "{name}, {bytes} B: a chained wire buffer was flattened"
        );
        assert_eq!(path(&mut c), sent, "{name}, {bytes} B: the path under test");
    }
}

fn ugni(intranode: IntraNode) -> LayerKind {
    LayerKind::Ugni(UgniConfig {
        intranode,
        ..UgniConfig::optimized()
    })
}

#[test]
fn ugni_pxshm_moves_a_shared_payload_without_a_copy() {
    for intranode in [IntraNode::PxshmSingleCopy, IntraNode::PxshmDoubleCopy] {
        no_copy_on(
            &format!("{intranode:?}"),
            &[512, 4096],
            || ugni(intranode).cluster(8, 8),
            |c| c.layer_mut::<UgniLayer>().stats.shm_msgs,
        );
    }
}

#[test]
fn ugni_smsg_and_rendezvous_move_a_shared_payload_without_a_copy() {
    // 544 wire bytes fit the 1 KiB mailbox of a small job.
    no_copy_on(
        "SMSG",
        &[512],
        || LayerKind::ugni().cluster(8, 1),
        |c| c.layer_mut::<UgniLayer>().stats.small_msgs,
    );
    no_copy_on(
        "rendezvous GET",
        &[4096],
        || LayerKind::ugni().cluster(8, 1),
        |c| c.layer_mut::<UgniLayer>().stats.rendezvous_msgs,
    );
    // At 4,096 nodes the SMSG limit is 256 B, so 512 B goes by GET too.
    let params = LayerKind::ugni().params();
    assert!(params.smsg_max_size(4096) < 512);
    no_copy_on(
        "rendezvous GET at 4,096 nodes",
        &[512],
        || LayerKind::ugni().cluster(4096, 1),
        |c| c.layer_mut::<UgniLayer>().stats.rendezvous_msgs,
    );
}

#[test]
fn mpi_eager_rendezvous_and_shared_memory_move_a_shared_payload_without_a_copy() {
    // 512 B is a small eager SMSG, 4 KiB a medium eager PUT.
    no_copy_on(
        "MPI eager",
        &[512, 4096],
        || LayerKind::mpi().cluster(8, 1),
        |c| c.layer_mut::<MpiLayer>().mpi().stats.eager_msgs,
    );
    let rndv = LayerKind::Mpi(MpiConfig {
        rndv_threshold: 1024,
        ..MpiConfig::default()
    });
    no_copy_on(
        "MPI rendezvous",
        &[4096],
        || rndv.cluster(8, 1),
        |c| c.layer_mut::<MpiLayer>().mpi().stats.rndv_msgs,
    );
    no_copy_on(
        "MPI shared memory",
        &[512, 4096],
        || LayerKind::mpi().cluster(8, 8),
        |c| c.layer_mut::<MpiLayer>().mpi().stats.shm_msgs,
    );
}
