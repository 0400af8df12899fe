//! # flexsfp-apps
//!
//! The FlexSFP use-case applications from §3 of the paper, each
//! implemented against the PPE programming model:
//!
//! * [`nat`] — the §5.1 case study: static 1:1 source NAT with a
//!   32 768-flow hash table (the Table 1 resource row);
//! * [`firewall`] — per-port ACL firewalling at the optical edge;
//! * [`vlan`] — VLAN access tagging and QinQ for legacy L2 segmentation;
//! * [`tunnel`] — GRE / VXLAN / IP-in-IP encap/decap gateways;
//! * [`lb`] — a Katran-style L4 load balancer with Maglev-style
//!   consistent hashing;
//! * [`telemetry`] — NetFlow-like flow accounting, in-band timestamp
//!   tagging and microburst detection;
//! * [`ratelimit`] — per-source token-bucket rate limiting;
//! * [`dnsfilter`] — P4DDPI-style DNS/DoH filtering;
//! * [`ipv6filter`] — per-subscriber IPv6 source validation (§2.1);
//! * [`sanitizer`] — packet sanitization and protocol validation;
//! * [`stateful`] — a FlowBlaze-style EFSM SYN-flood guard.
//!
//! [`factory`] resolves bitstream metadata to application instances so a
//! module can be OTA-reprogrammed between any of these.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dnsfilter;
pub mod factory;
pub mod firewall;
pub mod ipv6filter;
pub mod lb;
pub mod nat;
pub mod ratelimit;
pub mod sanitizer;
pub mod stateful;
pub mod telemetry;
pub mod tunnel;
pub mod vlan;

pub use dnsfilter::DnsFilter;
pub use firewall::{AclAction, AclFirewall, AclRule};
pub use ipv6filter::Ipv6SubscriberFilter;
pub use lb::L4LoadBalancer;
pub use nat::StaticNat;
pub use ratelimit::PerSourceRateLimiter;
pub use sanitizer::Sanitizer;
pub use stateful::SynFloodGuard;
pub use telemetry::TelemetryProbe;
pub use tunnel::TunnelGateway;
pub use vlan::VlanTagger;

/// What a control-plane insert answers: `Ok` when the entry is
/// installed, `TableFull` when the app's fixed capacity refused it.
fn installed(ok: bool) -> flexsfp_ppe::TableOpResult {
    if ok {
        flexsfp_ppe::TableOpResult::Ok
    } else {
        flexsfp_ppe::TableOpResult::TableFull
    }
}
