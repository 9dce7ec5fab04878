//! Build identity and process-uptime telemetry.
//!
//! Every scrape should be attributable to a build: `cgc_build_info` is
//! a Prometheus-style info gauge — constant value 1, with the payload
//! in the `version=` / `git=` labels — and `cgc_process_uptime_seconds`
//! dates the process itself, so a dashboard can distinguish "metric
//! reset because of a deploy" from "metric reset because of a crash
//! loop".

use std::sync::Arc;
use std::time::Instant;

use crate::metric::Gauge;
use crate::registry::Registry;

/// Git revision baked in at compile time via the `CGC_GIT_REV`
/// environment variable, or `"unknown"` outside a tagged build.
const GIT_REV: &str = match option_env!("CGC_GIT_REV") {
    Some(rev) => rev,
    None => "unknown",
};

/// Crate version baked in at compile time.
const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Registers and keeps the build-identity gauges fresh.
pub struct BuildInfo {
    started: Instant,
    uptime: Arc<Gauge>,
}

impl BuildInfo {
    /// Registers `cgc_build_info{version=,git=}` (set to 1) and
    /// `cgc_process_uptime_seconds` on `registry`; the uptime clock
    /// starts now.
    pub fn register(registry: &Registry) -> BuildInfo {
        registry
            .gauge_with(
                "cgc_build_info",
                "Build identity as labels; value is always 1",
                &[("version", VERSION), ("git", GIT_REV)],
            )
            .set(1);
        let uptime = registry.gauge(
            "cgc_process_uptime_seconds",
            "Seconds since this process registered its build info",
        );
        uptime.set(0);
        BuildInfo {
            started: Instant::now(),
            uptime,
        }
    }

    /// Republishes the uptime gauge; call before rendering a scrape.
    pub fn sync(&self) {
        self.uptime.set(self.started.elapsed().as_secs() as i64);
    }

    /// The one-line build summary appended to `/healthz` bodies.
    pub fn healthz_line(&self) -> String {
        format!(
            "build {} git {} up {}s\n",
            VERSION,
            GIT_REV,
            self.started.elapsed().as_secs()
        )
    }
}

impl std::fmt::Debug for BuildInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildInfo")
            .field("version", &VERSION)
            .field("git", &GIT_REV)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::MetricValue;

    #[test]
    fn registers_info_and_uptime_gauges() {
        let registry = Registry::new();
        let info = BuildInfo::register(&registry);
        info.sync();
        let snap = registry.snapshot();
        let build = snap
            .get_with("cgc_build_info", &[("git", GIT_REV), ("version", VERSION)])
            .expect("build info series");
        assert!(matches!(build.value, MetricValue::Gauge(1)));
        assert!(matches!(
            snap.gauge("cgc_process_uptime_seconds"),
            Some(v) if v >= 0
        ));
    }

    #[test]
    fn healthz_line_carries_version_and_git() {
        let registry = Registry::new();
        let info = BuildInfo::register(&registry);
        let line = info.healthz_line();
        assert!(line.starts_with(&format!("build {} git {} up ", VERSION, GIT_REV)));
        assert!(line.ends_with("s\n"));
    }
}
