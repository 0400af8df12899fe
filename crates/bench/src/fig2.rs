//! Figure 2: the prototype board, as a machine-readable inventory.
//!
//! The paper's Figure 2 is a photograph of the SFP+ module: MPF200T
//! FPGA, 128 Mb SPI flash, two bidirectional 12.7 Gb/s transceivers and
//! a JTAG bus. This experiment assembles the modelled module, inventories
//! exactly those components and runs a self-check on each.

use flexsfp_core::module::FlexSfp;
use flexsfp_fabric::jtag::JtagAdapter;
use flexsfp_fabric::resources::Device;
use flexsfp_fabric::serdes;

/// One inventory line.
#[derive(Debug, Clone)]
pub(crate) struct Component {
    /// Component name.
    pub name: String,
    /// Key property.
    pub detail: String,
    /// Self-check passed.
    pub ok: bool,
}

flexsfp_obs::impl_json_struct!(Component { name, detail, ok });

/// The report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Inventory lines.
    components: Vec<Component>,
    /// Every self-check passed.
    pub all_ok: bool,
}

flexsfp_obs::impl_json_struct!(Report { components, all_ok });

/// Build and inventory the prototype module.
pub fn run() -> Report {
    let mut module = FlexSfp::passthrough();
    let device = Device::mpf200t();
    let mut components = Vec::new();

    components.push(Component {
        name: "FPGA".into(),
        detail: format!(
            "{} — {} k LE, {:.1} Mb SRAM, {} nm",
            device.name,
            device.logic_elements / 1000,
            device.bram_kbits as f64 / 1000.0,
            device.process_nm
        ),
        ok: device.logic_elements == 192_000 && device.bram_kbits == 13_300,
    });
    components.push(Component {
        name: "SPI flash".into(),
        detail: format!(
            "{} Mb, {} design slots of {} MiB",
            flexsfp_fabric::flash::FLASH_BYTES * 8 / (1024 * 1024),
            flexsfp_fabric::flash::SLOTS,
            flexsfp_fabric::flash::SLOT_BYTES / (1024 * 1024)
        ),
        ok: module.flash.read(0, 4).is_ok(),
    });
    for (name, t) in [
        ("Electrical transceiver", &module.edge),
        ("Optical transceiver", &module.optical),
    ] {
        components.push(Component {
            name: name.into(),
            detail: format!(
                "bidirectional, {:.4} GBd line ({} Gb/s MAC)",
                serdes::BAUD as f64 / 1e9,
                serdes::MAC_BPS / 1_000_000_000
            ),
            ok: t.is_enabled(),
        });
    }
    let jtag = JtagAdapter::default();
    components.push(Component {
        name: "JTAG".into(),
        detail: format!("IDCODE 0x{:08x}", jtag.scan()),
        ok: jtag.scan() == 0x0f81_81cf,
    });
    module.refresh_dom();
    let dom = module.mgmt.read_dom();
    components.push(Component {
        name: "I2C management (SFF-8472)".into(),
        detail: format!(
            "{} {} s/n {} — DOM: {:.1} °C, {:.2} dBm tx",
            module.mgmt.vendor(),
            module.mgmt.part_number(),
            module.mgmt.serial(),
            dom.temperature_c,
            dom.tx_power_dbm()
        ),
        ok: dom.temperature_c > 0.0 && dom.tx_power_mw > 0.0,
    });
    let fit = module.fit_report();
    components.push(Component {
        name: "Loaded design".into(),
        detail: format!(
            "{} v{} — {} LUT4 used, fits: {}",
            module.app_name(),
            module.app_version(),
            fit.used.lut4,
            fit.fits()
        ),
        ok: fit.fits(),
    });
    let all_ok = components.iter().all(|c| c.ok);
    Report { components, all_ok }
}

/// Render the inventory.
pub fn render(r: &Report) -> String {
    let rows: Vec<Vec<String>> = r
        .components
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.detail.clone(),
                if c.ok { "ok".into() } else { "FAIL".into() },
            ]
        })
        .collect();
    format!(
        "Figure 2: prototype component inventory and self-check\n{}",
        crate::render::table(&["Component", "Detail", "Check"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_complete_and_healthy() {
        let r = run();
        assert!(r.all_ok, "{r:#?}");
        assert_eq!(r.components.len(), 7);
        let names: Vec<&str> = r.components.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"FPGA"));
        assert!(names.contains(&"SPI flash"));
        assert!(names.contains(&"JTAG"));
    }

    #[test]
    fn transceivers_signal_at_10gbase_r() {
        let r = run();
        let t = r
            .components
            .iter()
            .find(|c| c.name.contains("Optical"))
            .unwrap();
        assert!(t.detail.contains("10.3125 GBd"), "{}", t.detail);
    }

    #[test]
    fn flash_is_128_mbit() {
        let r = run();
        let f = r.components.iter().find(|c| c.name == "SPI flash").unwrap();
        assert!(f.detail.contains("128 Mb"), "{}", f.detail);
    }

    #[test]
    fn render_output() {
        let text = render(&run());
        assert!(text.contains("MPF200T"));
        assert!(text.contains("ok"));
        assert!(!text.contains("FAIL"));
    }
}
