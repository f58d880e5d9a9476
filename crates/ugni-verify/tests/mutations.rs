//! Mutation-style coverage for the contract verifier: every rule gets a
//! test that deliberately violates it and asserts the checker flags it
//! with the right descriptor/handle — plus a clean run it stays silent
//! on. A verifier nobody has ever seen fire is indistinguishable from
//! one that cannot.

use bytes::Bytes;
use gemini_net::{GeminiParams, MemHandle, RdmaOp};
use ugni::{CqEvent, Gni, GniError, PostDescriptor};
use ugni_verify::{CheckedGni, Clock, Violation};

fn checked(nodes: u32) -> CheckedGni {
    CheckedGni::new(GeminiParams::hopper(), nodes)
}

fn put_desc(
    lh: MemHandle,
    la: gemini_net::Addr,
    rh: MemHandle,
    ra: gemini_net::Addr,
    bytes: u64,
    user_id: u64,
) -> PostDescriptor {
    PostDescriptor {
        op: RdmaOp::Put,
        local_mem: lh,
        local_addr: la,
        remote_mem: rh,
        remote_addr: ra,
        bytes,
        data: Some(Bytes::from(vec![7u8; bytes as usize])),
        user_id,
    }
}

/// The whole legal lifecycle: register, post, consume exactly once,
/// deregister, drain. Zero violations, zero leaks.
#[test]
fn clean_lifecycle_passes() {
    let mut g = checked(2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();

    // SMSG round.
    let ok = g
        .smsg_send_w_tag(0, ep, 3, Bytes::from_static(b"hello"))
        .unwrap();
    let rx = g.smsg_get_next_w_tag(1, 1, ok.deliver_at).unwrap();
    assert_eq!(rx.tag, 3);

    // RDMA round.
    let la = g.alloc_addr(0).unwrap();
    let (lh, _) = g.mem_register(0, la, 4096).unwrap();
    let ra = g.alloc_addr(1).unwrap();
    let (rh, _) = g.mem_register(1, ra, 4096).unwrap();
    let ok = g
        .post_fma(0, ep, put_desc(lh, la, rh, ra, 4096, 42))
        .unwrap();
    match g.cq_get_event(cq, ok.local_cq_at).unwrap() {
        CqEvent::PostDone { user_id, .. } => assert_eq!(user_id, 42),
        ev => panic!("unexpected event {ev:?}"),
    }
    g.mem_deregister(0, lh).unwrap();
    g.mem_deregister(1, rh).unwrap();

    let report = g.finish();
    assert!(report.is_clean(), "{report}");
    assert!(report.leaks.is_empty(), "{report}");
    assert!(report.checked_calls > 0);
}

/// Rule: every descriptor id gets exactly one consumed completion. A
/// consumption with no outstanding post (the signature a double-consume
/// leaves after the first legal one) is flagged with the descriptor id.
#[test]
fn double_consume_is_flagged_with_descriptor_id() {
    // Arrange a completion the verifier never saw posted: post through
    // the raw Gni, then wrap. From the wrapper's ledger this event's
    // descriptor has already been retired — consuming it is the second
    // consumption.
    let mut raw = Gni::new(GeminiParams::hopper(), 2);
    let cq = raw.cq_create();
    let ep = raw.ep_create(0, 1, cq).unwrap();
    let la = raw.alloc_addr(0).unwrap();
    let (lh, _) = raw.mem_register(0, la, 64).unwrap();
    let ra = raw.alloc_addr(1).unwrap();
    let (rh, _) = raw.mem_register(1, ra, 64).unwrap();
    let ok = raw
        .post_fma(0, ep, put_desc(lh, la, rh, ra, 64, 99))
        .unwrap();

    let mut g = CheckedGni::wrap(raw);
    let _ = g.cq_get_event(cq, ok.local_cq_at).unwrap();
    let report = g.report();
    assert!(
        report.violations.iter().any(
            |v| matches!(v, Violation::DoubleCompletion { user_id: 99, cq: c, .. } if *c == cq)
        ),
        "{report}"
    );
}

/// Rule: no `mem_deregister` while a transaction on the handle is in
/// flight (completion not yet consumed).
#[test]
fn deregister_mid_flight_is_flagged() {
    let mut g = checked(2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();
    let la = g.alloc_addr(0).unwrap();
    let (lh, _) = g.mem_register(0, la, 256).unwrap();
    let ra = g.alloc_addr(1).unwrap();
    let (rh, _) = g.mem_register(1, ra, 256).unwrap();
    let ok = g.post_fma(0, ep, put_desc(lh, la, rh, ra, 256, 7)).unwrap();

    // Deregister the local buffer before consuming the completion.
    g.mem_deregister(0, lh).unwrap();

    let report = g.report();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::DeregInFlight { user_id: 7, handle, node: 0, .. } if *handle == lh
        )),
        "{report}"
    );

    // Consuming afterwards is then the legal single consumption.
    let _ = g.cq_get_event(cq, ok.local_cq_at).unwrap();
    let report = g.report();
    assert_eq!(report.violations.len(), 1, "{report}");
}

/// Rule: a post through a deregistered handle is use-after-dereg (and
/// carries both the posting and the deregistering call sites).
#[test]
fn post_after_deregister_is_flagged() {
    let mut g = checked(2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();
    let la = g.alloc_addr(0).unwrap();
    let (lh, _) = g.mem_register(0, la, 128).unwrap();
    let ra = g.alloc_addr(1).unwrap();
    let (rh, _) = g.mem_register(1, ra, 128).unwrap();
    g.mem_deregister(0, lh).unwrap();

    let err = g
        .post_fma(0, ep, put_desc(lh, la, rh, ra, 128, 13))
        .unwrap_err();
    assert_eq!(err, GniError::NotRegistered);

    let report = g.report();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::UseAfterDereg { user_id: 13, handle, node: 0, .. } if *handle == lh
        )),
        "{report}"
    );
}

/// Rule: a post through a handle that was never registered at all is
/// distinguished from use-after-dereg.
#[test]
fn post_through_unknown_handle_is_flagged() {
    let mut g = checked(2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();
    let la = g.alloc_addr(0).unwrap();
    let ra = g.alloc_addr(1).unwrap();
    let bogus = MemHandle(0xdead);
    let err = g
        .post_fma(0, ep, put_desc(bogus, la, bogus, ra, 64, 5))
        .unwrap_err();
    assert_eq!(err, GniError::NotRegistered);

    let report = g.report();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::PostUnregistered { user_id: 5, handle, .. } if *handle == bogus
        )),
        "{report}"
    );
}

/// Rule: after `NoCredits` parks a message, the next send on that
/// endpoint must retry the parked message — sending different traffic
/// first means the backlog was bypassed.
#[test]
fn credit_backlog_bypass_is_flagged() {
    let mut g = checked(2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();
    let credits = g.params().smsg_credits;

    // Exhaust the mailbox credits without draining the receiver.
    let parked = Bytes::from_static(b"parked-message");
    let mut err = None;
    for _ in 0..credits + 1 {
        if let Err(e) = g.smsg_send_w_tag(0, ep, 1, parked.clone()) {
            err = Some(e);
            break;
        }
    }
    assert!(
        matches!(err, Some(GniError::NoCredits { .. })),
        "expected credit exhaustion, got {err:?}"
    );

    // Bypass: send *different* traffic on the same connection.
    let _ = g.smsg_send_w_tag(1_000_000, ep, 2, Bytes::from_static(b"queue-jumper"));

    let report = g.report();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::CreditBypass { ep: e, parked_tag: 1, sent_tag: 2, .. } if *e == ep
        )),
        "{report}"
    );
}

/// Clean counterpart: retrying the *parked* message (what a connection's backlog
/// does) satisfies the obligation.
#[test]
fn credit_retry_of_parked_message_is_clean() {
    let mut g = checked(2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();
    let credits = g.params().smsg_credits;
    let parked = Bytes::from_static(b"parked-message");
    let mut retry_at = None;
    for _ in 0..credits + 1 {
        if let Err(GniError::NoCredits { retry_at: t }) =
            g.smsg_send_w_tag(0, ep, 1, parked.clone())
        {
            retry_at = Some(t);
            break;
        }
    }
    let retry_at = retry_at.expect("credit exhaustion");

    // Drain one message so a credit frees, then retry the parked one.
    let rx = g.smsg_get_next_w_tag(1, 1, retry_at).unwrap();
    assert_eq!(rx.tag, 1);
    g.smsg_send_w_tag(retry_at, ep, 1, parked).unwrap();

    let report = g.report();
    assert!(report.is_clean(), "{report}");
}

/// Rule: outstanding completions per CQ stay within depth unless a fault
/// plan explicitly bounds/overruns the queue.
#[test]
fn cq_depth_excess_is_flagged() {
    let mut g = checked(2);
    g.set_cq_depth_limit(2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();
    let la = g.alloc_addr(0).unwrap();
    let (lh, _) = g.mem_register(0, la, 64).unwrap();
    let ra = g.alloc_addr(1).unwrap();
    let (rh, _) = g.mem_register(1, ra, 64).unwrap();
    for id in 0..3u64 {
        g.post_fma(0, ep, put_desc(lh, la, rh, ra, 64, id)).unwrap();
    }
    let report = g.report();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::CqDepthExceeded { outstanding: 3, limit: 2, cq: c, .. } if *c == cq
        )),
        "{report}"
    );
}

/// Rule: consumption clocks are monotonic per object — draining a CQ at
/// an earlier `now` than a previous successful poll is flagged.
#[test]
fn non_monotonic_consumption_is_flagged() {
    let mut g = checked(2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();
    let la = g.alloc_addr(0).unwrap();
    let (lh, _) = g.mem_register(0, la, 64).unwrap();
    let ra = g.alloc_addr(1).unwrap();
    let (rh, _) = g.mem_register(1, ra, 64).unwrap();

    let ok1 = g.post_fma(0, ep, put_desc(lh, la, rh, ra, 64, 1)).unwrap();
    let ok2 = g.post_fma(0, ep, put_desc(lh, la, rh, ra, 64, 2)).unwrap();
    let late = ok1.local_cq_at.max(ok2.local_cq_at) + 1_000;

    // Consume the first far in the future, the second "in the past".
    g.cq_get_event(cq, late).unwrap();
    g.cq_get_event(cq, late - 500).unwrap();

    let report = g.report();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::NonMonotonicTime { clock: Clock::Cq(c), .. } if *c == cq
        )),
        "{report}"
    );
}

/// Rule: touching buffer content after its registration died.
#[test]
fn write_and_read_after_dereg_are_flagged() {
    let mut g = checked(2);
    let a = g.alloc_addr(0).unwrap();
    let (h, _) = g.mem_register(0, a, 64).unwrap();
    g.mem_write(0, a, Bytes::from_static(b"live"));
    g.mem_deregister(0, h).unwrap();

    g.mem_write(0, a, Bytes::from_static(b"stale"));
    let _ = g.mem_read(0, a);

    let report = g.report();
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::WriteAfterDereg { node: 0, addr, .. } if *addr == a)));
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::ReadAfterDereg { node: 0, addr, .. } if *addr == a)));

    // Re-registering the buffer revives it: no further violations.
    let before = report.violations.len();
    let (_h2, _) = g.mem_register(0, a, 64).unwrap();
    g.mem_write(0, a, Bytes::from_static(b"fresh"));
    let _ = g.mem_read(0, a);
    assert_eq!(g.report().violations.len(), before);
}

/// Shutdown: live registrations, unconsumed completions, undrained
/// mailboxes and parked retries surface as leaks (advisory, separate
/// from violations).
#[test]
fn leaks_are_reported_at_finish() {
    let mut g = checked(2);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();
    let la = g.alloc_addr(0).unwrap();
    let (lh, _) = g.mem_register(0, la, 64).unwrap();
    let ra = g.alloc_addr(1).unwrap();
    let (rh, _) = g.mem_register(1, ra, 64).unwrap();
    // Posted, never consumed.
    g.post_fma(0, ep, put_desc(lh, la, rh, ra, 64, 77)).unwrap();
    // Sent, never drained.
    g.smsg_send_w_tag(0, ep, 9, Bytes::from_static(b"zombie"))
        .unwrap();

    let report = g.finish();
    assert!(report.is_clean(), "leaks must not be violations: {report}");
    use ugni_verify::Leak;
    assert!(report
        .leaks
        .iter()
        .any(|l| matches!(l, Leak::Registration { handle, .. } if *handle == lh)));
    assert!(report
        .leaks
        .iter()
        .any(|l| matches!(l, Leak::UnconsumedCompletion { user_id: 77, .. })));
    assert!(report
        .leaks
        .iter()
        .any(|l| matches!(l, Leak::UndrainedMailbox { node: 1, .. })));
}

/// Advisory: content stored with `mem_write` and never released with
/// `mem_clear` is listed with its writer's call site, sorted by buffer;
/// the cleared twin is not, and overwriting a buffer is still one entry.
#[test]
fn uncleared_content_is_reported_as_stale() {
    use ugni_verify::Leak;
    let mut g = checked(2);
    let kept = g.alloc_addr(1).unwrap();
    let freed = g.alloc_addr(0).unwrap();
    let early = g.alloc_addr(0).unwrap();
    g.mem_write(1, kept, Bytes::from_static(b"first"));
    g.mem_write(0, freed, Bytes::from_static(b"transient"));
    g.mem_write(0, early, Bytes::from_static(b"kept too"));
    let line = line!() + 1;
    g.mem_write(1, kept, Bytes::from_static(b"second"));
    g.mem_clear(0, freed);

    let report = g.finish();
    assert!(report.is_clean(), "stale content is advisory: {report}");
    let stale: Vec<_> = report
        .leaks
        .iter()
        .filter_map(|l| match l {
            Leak::StaleContent { node, addr, site } => Some((*node, *addr, *site)),
            _ => None,
        })
        .collect();
    assert_eq!(stale.len(), 2, "{report}");
    assert_eq!(
        (stale[0].0, stale[0].1),
        (0, early),
        "sorted by (node, addr)"
    );
    assert_eq!((stale[1].0, stale[1].1), (1, kept));
    assert!(stale[1].2.file.ends_with("mutations.rs"), "{report}");
    assert_eq!(stale[1].2.line, line, "the latest writer is the one named");
    assert!(report.to_string().contains("was never cleared"), "{report}");
}

/// Strict mode: the first violation panics with the offending handle and
/// call site instead of accumulating.
#[test]
#[should_panic(expected = "uGNI contract violation")]
fn strict_mode_panics_on_first_violation() {
    let mut g = checked(2);
    g.set_strict(true);
    let cq = g.cq_create();
    let ep = g.ep_create(0, 1, cq).unwrap();
    let la = g.alloc_addr(0).unwrap();
    let (lh, _) = g.mem_register(0, la, 64).unwrap();
    let ra = g.alloc_addr(1).unwrap();
    let (rh, _) = g.mem_register(1, ra, 64).unwrap();
    g.post_fma(0, ep, put_desc(lh, la, rh, ra, 64, 1)).unwrap();
    g.mem_deregister(0, lh).unwrap(); // mid-flight: panics here
}

/// Violations carry the offending call site (file:line of the caller).
#[test]
fn violations_carry_call_sites() {
    let mut g = checked(2);
    let a = g.alloc_addr(0).unwrap();
    let (h, _) = g.mem_register(0, a, 64).unwrap();
    g.mem_deregister(0, h).unwrap();
    g.mem_write(0, a, Bytes::from_static(b"stale"));
    let report = g.report();
    let Violation::WriteAfterDereg { site, .. } = &report.violations[0] else {
        panic!("expected WriteAfterDereg: {report}");
    };
    assert!(site.file.ends_with("mutations.rs"), "site: {site}");
    assert!(site.line > 0);
}
