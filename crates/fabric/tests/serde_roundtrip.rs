//! Serde round-trips for the public fabric types (device descriptions are
//! meant to be shareable as JSON).

use fabric::{all_devices, Device, Family, Resources, WindowRequest};

#[test]
fn every_database_device_round_trips_through_json() {
    for d in all_devices() {
        let json = serde_json::to_string(&d).unwrap();
        let back: Device = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d, "{}", d.name());
        assert_eq!(back.total_resources(), d.total_resources());
    }
}

/// Deserializing runs `Device::new`'s checks, so JSON cannot carry a
/// device wider than a frame address can reach. (`prcost`'s snapshot
/// tests cover the row limit and empty fabrics through the same path.)
#[test]
fn devices_beyond_the_frame_address_do_not_deserialize() {
    let clb_strip = |n: usize| {
        let columns = vec![fabric::ResourceKind::Clb; n];
        serde_json::to_string(&Device::new("wide", Family::Virtex5, 1, columns).unwrap()).unwrap()
    };
    let widest = clb_strip(fabric::MAX_COLUMNS);
    assert!(serde_json::from_str::<Device>(&widest).is_ok());
    let too_wide = widest.replace("[\"Clb\"", "[\"Clb\",\"Clb\"");
    assert!(serde_json::from_str::<Device>(&too_wide).is_err());
}

#[test]
fn family_params_serialize_with_stable_field_names() {
    let json = serde_json::to_value(Family::Virtex5.params()).unwrap();
    assert_eq!(json["clb_col"], 20);
    assert_eq!(json["frames"]["fr_size"], 41);
    assert_eq!(json["frames"]["bytes_word"], 4);
}

#[test]
fn requests_and_resources_round_trip() {
    let req = WindowRequest::new(17, 1, 2, 1);
    let back: WindowRequest = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
    assert_eq!(back, req);

    let r = Resources::new(163, 32, 0);
    let back: Resources = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
    assert_eq!(back, r);
}
