//! The C-state tables index by `CState` discriminant, so their iteration
//! order is the discriminant order. These tests pin that it is also the
//! depth order, on every named configuration of every registered model
//! (skylake-sp and zen2).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use aw_cstates::{CStateConfig, NamedConfig};
use aw_hw::HardwareModel;

fn hash_of(cfg: &CStateConfig) -> u64 {
    let mut h = DefaultHasher::new();
    cfg.hash(&mut h);
    h.finish()
}

/// Every named configuration, restricted to each model's menu.
fn menus() -> impl Iterator<Item = (&'static HardwareModel, NamedConfig, CStateConfig)> {
    HardwareModel::all()
        .iter()
        .flat_map(|hw| NamedConfig::ALL.into_iter().map(move |n| (hw, n, hw.restrict(&n.config()))))
}

#[test]
fn enabled_states_ascend_strictly_in_depth() {
    for (hw, name, cfg) in menus() {
        let depths: Vec<u8> = cfg.iter_enabled().map(|s| s.depth()).collect();
        assert!(depths.windows(2).all(|w| w[0] < w[1]), "{} {name}: {depths:?}", hw.name);
    }
}

#[test]
fn catalog_states_are_depth_ordered() {
    for hw in HardwareModel::all() {
        for cat in [hw.base_catalog(), hw.catalog()] {
            let depths: Vec<u8> = cat.states().iter().map(|s| s.depth()).collect();
            assert!(depths.windows(2).all(|w| w[0] < w[1]), "{}: {depths:?}", hw.name);
            for s in cat.states() {
                assert_eq!(cat.params(s).state, s);
            }
        }
    }
}

#[test]
fn config_ignores_input_order_and_duplicates() {
    for (hw, name, cfg) in menus() {
        let states = cfg.enabled_states();
        let scrambled: Vec<_> =
            states.iter().rev().chain(&states).chain(&states).copied().collect();
        let again = CStateConfig::new(scrambled, cfg.turbo());
        assert_eq!(again, cfg, "{} {name}", hw.name);
        assert_eq!(hash_of(&again), hash_of(&cfg), "{} {name}", hw.name);
    }
}

#[test]
fn aw_twin_then_demote_round_trips_legacy_menus() {
    for (hw, name, cfg) in menus().filter(|(_, n, _)| !n.is_aw()) {
        let twin = cfg.aw_twin();
        assert_eq!(twin.validate(&hw.catalog()), Ok(()), "{} {name}", hw.name);
        assert_eq!(twin.demote_agile(), cfg, "{} {name}", hw.name);
    }
}
