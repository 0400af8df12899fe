//! Application factory: bitstream metadata → application instance.
//!
//! In hardware, a bitstream *is* the application; in the model, the
//! bitstream's metadata names the application and carries its JSON
//! configuration, and this registry instantiates the matching Rust
//! implementation at boot. Install it on a module with
//! [`flexsfp_core::FlexSfp::set_factory`] to make OTA reprogramming
//! switch between any of the §3 use cases.

use crate::dnsfilter::DnsFilter;
use crate::firewall::{AclFirewall, AclRule};
use crate::ipv6filter::Ipv6SubscriberFilter;
use crate::lb::L4LoadBalancer;
use crate::nat::StaticNat;
use crate::ratelimit::PerSourceRateLimiter;
use crate::sanitizer::{Sanitizer, SanitizerPolicy};
use crate::stateful::SynFloodGuard;
use crate::telemetry::TelemetryProbe;
use crate::tunnel::{TunnelGateway, TunnelKind};
use crate::vlan::VlanTagger;
use flexsfp_core::bitstream::BitstreamMeta;
use flexsfp_core::module::AppFactory;
use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_obs::{FromJson, Value};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::PacketProcessor;

/// The entries `config[key]` lists: none when the key is absent, `None`
/// when it is not a list.
fn entries<'a>(config: &'a Value, key: &str) -> Option<&'a [Value]> {
    match &config[key] {
        Value::Null => Some(&[]),
        list => list.as_array().map(Vec::as_slice),
    }
}

/// Instantiate the application named by `meta`, honouring its JSON
/// `config`. An unknown name, a table of no entries, a table whose
/// design `fits` refuses, a value its field cannot hold (an address past
/// `u32::MAX`, a port or VLAN id past `u16::MAX`) and a listed entry the
/// factory cannot read or the app refuses return `None` (the module
/// falls back to its golden image).
fn build_app(
    meta: &BitstreamMeta,
    fits: &dyn Fn(ResourceManifest) -> bool,
) -> Option<Box<dyn PacketProcessor>> {
    let cfg = &meta.config;
    // The entries `key` asks for (`default` when absent), if the app
    // `manifest` costs at that size fits: asked before allocating.
    let capacity = |key: &str, default: u64, manifest: fn(usize) -> ResourceManifest| {
        let entries = cfg[key].as_u64().unwrap_or(default) as usize;
        (entries > 0 && fits(manifest(entries))).then_some(entries)
    };
    match meta.app.as_str() {
        "passthrough" => Some(Box::new(PassThrough)),
        "nat" => {
            let capacity = capacity("table_size", 32_768, StaticNat::manifest)?;
            let mut nat = StaticNat::with_capacity(capacity);
            for m in entries(cfg, "mappings")? {
                let private = u32::try_from(m["private"].as_u64()?).ok()?;
                let public = u32::try_from(m["public"].as_u64()?).ok()?;
                nat.add_mapping(private, public).ok()?;
            }
            Some(Box::new(nat))
        }
        "firewall" => {
            let mut fw = AclFirewall::new(capacity("capacity", 256, AclFirewall::manifest)?);
            if cfg["default"].as_str() == Some("deny") {
                fw.default_action = crate::firewall::AclAction::Deny;
            }
            for r in entries(cfg, "rules")? {
                fw.add_rule(AclRule::from_json(r)?).then_some(())?;
            }
            Some(Box::new(fw))
        }
        "vlan-tagger" => {
            let vid = u16::try_from(cfg["vid"].as_u64().unwrap_or(1)).ok()?;
            let mut t = VlanTagger::new(vid);
            if let Some(s) = cfg["s_tag"].as_u64() {
                t = t.with_s_tag(u16::try_from(s).ok()?);
            }
            Some(Box::new(t))
        }
        "tunnel-gw" => {
            let local = u32::try_from(cfg["local"].as_u64()?).ok()?;
            let remote = u32::try_from(cfg["remote"].as_u64()?).ok()?;
            let kind = match cfg["kind"].as_str()? {
                "gre" => TunnelKind::Gre {
                    key: u32::try_from(cfg["key"].as_u64().unwrap_or(0)).ok()?,
                },
                "vxlan" => TunnelKind::Vxlan {
                    vni: u32::try_from(cfg["vni"].as_u64().unwrap_or(0)).ok()?,
                },
                "ipip" => TunnelKind::IpIp,
                _ => return None,
            };
            Some(Box::new(TunnelGateway::new(kind, local, remote)))
        }
        "l4-lb" => {
            let vip = u32::try_from(cfg["vip"].as_u64()?).ok()?;
            let port = u16::try_from(cfg["port"].as_u64().unwrap_or(0)).ok()?;
            let backends = entries(cfg, "backends")?
                .iter()
                .map(|v| u32::try_from(v.as_u64()?).ok())
                .collect::<Option<Vec<u32>>>()?;
            if backends.len() > crate::lb::MAX_BACKENDS {
                return None;
            }
            Some(Box::new(L4LoadBalancer::new(vip, port, backends)))
        }
        "telemetry" => {
            let flows = capacity("flows", 8_192, TelemetryProbe::manifest)?;
            let window = cfg["window_ns"].as_u64().unwrap_or(100_000);
            let threshold = cfg["burst_bytes"].as_u64().unwrap_or(50_000);
            let mut t = TelemetryProbe::new(flows, window, threshold);
            t.tag_timestamps = cfg["tag_timestamps"].as_bool().unwrap_or(false);
            Some(Box::new(t))
        }
        "rate-limiter" => Some(Box::new(PerSourceRateLimiter::new())),
        "dns-filter" => {
            let mut f = DnsFilter::new();
            for d in entries(cfg, "blocked")? {
                f.block_domain(d.as_str()?).then_some(())?;
            }
            for r in entries(cfg, "doh_resolvers")? {
                f.block_doh_resolver(u32::try_from(r.as_u64()?).ok()?)
                    .then_some(())?;
            }
            Some(Box::new(f))
        }
        "sanitizer" => Some(Box::new(Sanitizer::new(SanitizerPolicy::default()))),
        "syn-flood-guard" => {
            let capacity = capacity("capacity", 4_096, SynFloodGuard::manifest)?;
            let threshold = cfg["threshold"].as_u64().unwrap_or(64);
            let quarantine = cfg["quarantine_ns"].as_u64().unwrap_or(5_000_000_000);
            Some(Box::new(SynFloodGuard::new(
                capacity, threshold, quarantine,
            )))
        }
        "ipv6-filter" => {
            let mut f = Ipv6SubscriberFilter::new();
            f.block_all_v6 = cfg["block_all"].as_bool().unwrap_or(false);
            for d in entries(cfg, "delegations")? {
                let prefix = d["prefix64"].as_u64()?;
                let subscriber = u32::try_from(d["subscriber"].as_u64()?).ok()?;
                f.delegate(prefix, subscriber).then_some(())?;
            }
            Some(Box::new(f))
        }
        _ => None,
    }
}

/// A boxed [`AppFactory`] for [`flexsfp_core::FlexSfp::set_factory`].
pub fn app_factory() -> AppFactory {
    Box::new(build_app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_core::Bitstream;
    use std::cell::Cell;

    fn meta(app: &str, config: flexsfp_obs::Value) -> BitstreamMeta {
        Bitstream::new(app, 1, 156_250_000).with_config(config).meta
    }

    /// `app` from `config`, on a device where everything fits.
    fn build(app: &str, config: flexsfp_obs::Value) -> Option<Box<dyn PacketProcessor>> {
        build_app(&meta(app, config), &|_| true)
    }

    #[test]
    fn builds_every_registered_app() {
        let cases = vec![
            ("passthrough", flexsfp_obs::json!({})),
            ("nat", flexsfp_obs::json!({"table_size": 1024})),
            ("firewall", flexsfp_obs::json!({"default": "deny"})),
            ("vlan-tagger", flexsfp_obs::json!({"vid": 100})),
            (
                "tunnel-gw",
                flexsfp_obs::json!({"kind": "gre", "local": 1, "remote": 2, "key": 3}),
            ),
            (
                "l4-lb",
                flexsfp_obs::json!({"vip": 167772161u32, "port": 80, "backends": [1, 2]}),
            ),
            ("telemetry", flexsfp_obs::json!({"flows": 128})),
            ("rate-limiter", flexsfp_obs::json!({})),
            ("dns-filter", flexsfp_obs::json!({"blocked": ["x.com"]})),
            ("sanitizer", flexsfp_obs::json!({})),
            ("syn-flood-guard", flexsfp_obs::json!({"threshold": 32})),
            (
                "ipv6-filter",
                flexsfp_obs::json!({"delegations": [{"prefix64": 1u64, "subscriber": 2}]}),
            ),
        ];
        for (name, cfg) in cases {
            let app = build(name, cfg).unwrap_or_else(|| panic!("{name} not built"));
            assert_eq!(app.name(), name);
        }
    }

    #[test]
    fn unknown_app_rejected() {
        assert!(build("quantum-router", flexsfp_obs::json!({})).is_none());
    }

    #[test]
    fn nat_mappings_from_config() {
        let cfg = flexsfp_obs::json!({
            "table_size": 64,
            "mappings": [{"private": 0xc0a80001u32, "public": 0x65000001u32}]
        });
        let mut app = build("nat", cfg).unwrap();
        // Verify via control-plane read.
        let r = app.control_op(&flexsfp_ppe::TableOp::Read {
            table: 0,
            key: 0xc0a80001u32.to_be_bytes().to_vec(),
        });
        assert_eq!(
            r,
            flexsfp_ppe::TableOpResult::Value(0x65000001u32.to_be_bytes().to_vec())
        );
    }

    #[test]
    fn tunnel_requires_endpoints() {
        assert!(build("tunnel-gw", flexsfp_obs::json!({"kind": "gre"})).is_none());
        assert!(build(
            "tunnel-gw",
            flexsfp_obs::json!({"kind": "bad", "local": 1, "remote": 2})
        )
        .is_none());
    }

    #[test]
    fn a_sized_app_is_costed_as_built_before_it_is_built() {
        for (app, key) in [
            ("nat", "table_size"),
            ("firewall", "capacity"),
            ("telemetry", "flows"),
            ("syn-flood-guard", "capacity"),
        ] {
            for entries in [1u64, 63, 64, 1_000, 4_096, 32_768, 100_000] {
                let config = flexsfp_obs::json!({ key: entries });
                let asked = Cell::new(None);
                let built = build_app(&meta(app, config.clone()), &|m| {
                    asked.set(Some(m));
                    true
                })
                .unwrap();
                assert_eq!(
                    asked.get(),
                    Some(built.resource_manifest()),
                    "{app} {entries}"
                );
                // A refused design allocates nothing and builds nothing.
                assert!(build_app(&meta(app, config), &|_| false).is_none());
            }
            // A table of no entries is refused before it is costed.
            let empty = meta(app, flexsfp_obs::json!({ key: 0 }));
            assert!(build_app(&empty, &|_| panic!("{app} costed")).is_none());
        }
    }

    #[test]
    fn ota_switch_between_apps_on_module() {
        use flexsfp_core::module::{FlexSfp, ModuleConfig};
        let mut m = FlexSfp::new(
            ModuleConfig::default(),
            build("nat", flexsfp_obs::json!({})).unwrap(),
        );
        m.set_factory(app_factory());
        // Stage a firewall bitstream and activate it.
        let bs = Bitstream::new("firewall", 2, 156_250_000)
            .with_config(flexsfp_obs::json!({"default": "deny"}));
        m.flash.write_slot(1, &bs.to_bytes()).unwrap();
        m.control.pending_activation = Some(1);
        assert!(m.maybe_reboot());
        assert_eq!(m.app_name(), "firewall");
        assert_eq!(m.app_version(), 2);
    }
}
