//! Virtual time. All simulation timestamps are absolute nanoseconds since
//! simulation start, stored in a `u64`. At nanosecond resolution a `u64`
//! covers ~584 years of virtual time, far beyond any experiment here.

/// Absolute virtual time in nanoseconds.
pub type Time = u64;

/// Convert a time (or duration) to fractional microseconds.
#[inline]
pub fn to_us(t: Time) -> f64 {
    t as f64 / 1_000.0
}

/// Convert a time (or duration) to fractional milliseconds.
#[inline]
pub fn to_ms(t: Time) -> f64 {
    t as f64 / 1_000_000.0
}

/// Convert a time (or duration) to fractional seconds.
#[inline]
pub fn to_secs(t: Time) -> f64 {
    t as f64 / 1_000_000_000.0
}

/// Duration of transferring `bytes` at `gb_per_s` gigabytes per second,
/// rounded up to at least 1 ns for any non-empty transfer.
///
/// "GB" here is 1e9 bytes, matching how link bandwidths are quoted.
#[inline]
pub fn transfer_ns(bytes: u64, gb_per_s: f64) -> Time {
    if bytes == 0 || gb_per_s <= 0.0 {
        return 0;
    }
    let ns = bytes as f64 / gb_per_s;
    ns.ceil().max(1.0) as Time
}

/// Human-friendly rendering used in harness output: picks ns/µs/ms/s.
pub fn fmt(t: Time) -> String {
    if t < 1_000 {
        format!("{t}ns")
    } else if t < 1_000_000 {
        format!("{:.2}us", to_us(t))
    } else if t < 1_000_000_000 {
        format!("{:.3}ms", to_ms(t))
    } else {
        format!("{:.3}s", to_secs(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(to_us(5_000), 5.0);
        assert_eq!(to_ms(5_000_000), 5.0);
        assert_eq!(to_secs(5_000_000_000), 5.0);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 6 GB/s: 6 bytes per ns.
        assert_eq!(transfer_ns(6_000, 6.0), 1_000);
        // Rounds up.
        assert_eq!(transfer_ns(1, 6.0), 1);
        assert_eq!(transfer_ns(0, 6.0), 0);
    }

    #[test]
    fn fmt_picks_sane_units() {
        assert_eq!(fmt(12), "12ns");
        assert_eq!(fmt(3_500), "3.50us");
        assert_eq!(fmt(2_000_000), "2.000ms");
        assert_eq!(fmt(1_000_000_000), "1.000s");
    }
}
