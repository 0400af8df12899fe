//! The four ablations, pinned whole.
//!
//! `ablations::run(30_000)` — the size the FIFO ablation's in-file test
//! uses — as the exact JSON text of each section, computed once on the
//! code whose chain-depth sweep built `Pipeline`s that could also run
//! packets. The chain-depth section depends only on the HLS model, so a
//! change to how a pipeline is described must leave it alone; the other
//! three run modules and are pinned beside it.

use flexsfp_bench::ablations;
use flexsfp_obs::json::ToJson;

#[test]
fn run_30000_is_pinned_whole() {
    let r = ablations::run(30_000);
    assert_eq!(
        r.control_share.to_json().to_string(),
        concat!(
            r#"[{"control_handled":0,"data_delivery":1.0,"share":0.0},"#,
            r#"{"control_handled":300,"data_delivery":1.0,"share":0.01},"#,
            r#"{"control_handled":1500,"data_delivery":1.0,"share":0.05},"#,
            r#"{"control_handled":3000,"data_delivery":1.0,"share":0.1},"#,
            r#"{"control_handled":6000,"data_delivery":1.0,"share":0.2}]"#,
        )
    );
    assert_eq!(
        r.table_size.to_json().to_string(),
        concat!(
            r#"[{"capacity":1024,"fits":true,"lsram_blocks":5,"lsram_share":0.008116883116883116},"#,
            r#"{"capacity":4096,"fits":true,"lsram_blocks":20,"lsram_share":0.032467532467532464},"#,
            r#"{"capacity":16384,"fits":true,"lsram_blocks":80,"lsram_share":0.12987012987012986},"#,
            r#"{"capacity":32768,"fits":true,"lsram_blocks":160,"lsram_share":0.2597402597402597},"#,
            r#"{"capacity":65536,"fits":true,"lsram_blocks":320,"lsram_share":0.5194805194805194},"#,
            r#"{"capacity":131072,"fits":false,"lsram_blocks":640,"lsram_share":1.0389610389610389}]"#,
        )
    );
    assert_eq!(
        r.chain_depth.to_json().to_string(),
        concat!(
            r#"[{"closes_1x":true,"closes_2x":true,"depth":1,"fmax_mhz":434.782608},"#,
            r#"{"closes_1x":true,"closes_2x":true,"depth":2,"fmax_mhz":384.615384},"#,
            r#"{"closes_1x":true,"closes_2x":true,"depth":3,"fmax_mhz":344.827586},"#,
            r#"{"closes_1x":true,"closes_2x":true,"depth":4,"fmax_mhz":312.5},"#,
            r#"{"closes_1x":true,"closes_2x":false,"depth":5,"fmax_mhz":285.714285},"#,
            r#"{"closes_1x":true,"closes_2x":false,"depth":6,"fmax_mhz":263.157894}]"#,
        )
    );
    assert_eq!(
        r.fifo.to_json().to_string(),
        concat!(
            r#"[{"delivery":0.6607666666666666,"fifo_kib":16},"#,
            r#"{"delivery":0.6744166666666667,"fifo_kib":64},"#,
            r#"{"delivery":0.7290333333333333,"fifo_kib":256},"#,
            r#"{"delivery":0.9474833333333333,"fifo_kib":1024}]"#,
        )
    );
}
