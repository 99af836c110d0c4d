//! Static component knowledge used by the synthetic models.
//!
//! A real LLM has (imperfect) knowledge of the component API from its
//! prompt and training. The synthetic models carry the same information
//! as a static table: the port list of every built-in model. Corruption
//! operators use it to craft *specific* realistic mistakes (connecting to
//! a port the component does not have, re-exposing genuinely unused
//! ports, …).

use picbench_netlist::{Instance, Netlist};
use std::collections::HashSet;

/// Port lists of the built-in component models, mirroring
/// `picbench_sparams::builtin_models()`.
pub const BUILTIN_PORTS: &[(&str, &[&str])] = &[
    ("waveguide", &["I1", "O1"]),
    ("phaseshifter", &["I1", "O1"]),
    ("mmi1x2", &["I1", "O1", "O2"]),
    ("mmi2x2", &["I1", "I2", "O1", "O2"]),
    ("coupler", &["I1", "I2", "O1", "O2"]),
    ("mzi", &["I1", "O1"]),
    ("mzi2x2", &["I1", "I2", "O1", "O2"]),
    ("mzm", &["I1", "O1"]),
    ("ringap", &["I1", "O1"]),
    ("ringad", &["I1", "I2", "O1", "O2"]),
    ("crossing", &["I1", "I2", "O1", "O2"]),
    ("switch1x2", &["I1", "O1", "O2"]),
    ("switch2x2", &["I1", "I2", "O1", "O2"]),
    ("splitter", &["I1", "O1", "O2"]),
    ("attenuator", &["I1", "O1"]),
    ("reflector", &["I1", "O1"]),
    ("gc", &["I1", "O1"]),
];

/// The port list of a built-in model, if known.
pub fn ports_of(model_ref: &str) -> Option<&'static [&'static str]> {
    BUILTIN_PORTS
        .iter()
        .find(|(name, _)| *name == model_ref)
        .map(|(_, ports)| *ports)
}

/// Whether a name is a built-in model reference.
pub fn is_builtin(model_ref: &str) -> bool {
    ports_of(model_ref).is_some()
}

/// Resolves an instance's model reference through the netlist's `models`
/// section (falling back to the component name itself).
pub fn instance_model_ref<'a>(netlist: &'a Netlist, instance: &str) -> Option<&'a str> {
    Some(model_ref(netlist, netlist.instances.get(instance)?))
}

fn model_ref<'a>(netlist: &'a Netlist, inst: &'a Instance) -> &'a str {
    netlist
        .models
        .get(&inst.component)
        .map_or(inst.component.as_str(), String::as_str)
}

/// The port list of an instance in a netlist, if its model is built-in.
pub fn instance_ports(netlist: &Netlist, instance: &str) -> Option<&'static [&'static str]> {
    ports_of(instance_model_ref(netlist, instance)?)
}

/// Every `(instance, port)` pair in the netlist that exists on its
/// component but is used by no connection and no external port, in
/// instance order and then component port order.
///
/// One pass over the endpoints and one over the instances. It depends
/// only on the netlist, so [`crate::SyntheticLlm`] computes it once per
/// problem and hands it to
/// [`sample_syntax_corruption`](crate::corrupt::sample_syntax_corruption).
pub fn unused_ports(netlist: &Netlist) -> Vec<(String, String)> {
    let used: HashSet<(&str, &str)> = netlist
        .connections
        .iter()
        .flat_map(|c| [&c.a, &c.b])
        .chain(netlist.ports.iter().map(|(_, pr)| pr))
        .map(|pr| (pr.instance.as_str(), pr.port.as_str()))
        .collect();
    let mut free = Vec::new();
    for (name, inst) in netlist.instances.iter() {
        for port in ports_of(model_ref(netlist, inst)).unwrap_or(&[]) {
            if !used.contains(&(name, *port)) {
                free.push((name.to_string(), (*port).to_string()));
            }
        }
    }
    free
}

/// A port name that does **not** exist on the given instance — the raw
/// material of a "Wrong ports" mistake. Returns `None` when the model is
/// unknown.
pub fn bogus_port(netlist: &Netlist, instance: &str) -> Option<String> {
    let ports = instance_ports(netlist, instance)?;
    for candidate in ["I2", "O2", "I3", "O3", "I4", "O4"] {
        if !ports.contains(&candidate) {
            return Some(candidate.to_string());
        }
    }
    Some("X9".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_netlist::NetlistBuilder;

    fn sample() -> Netlist {
        NetlistBuilder::new()
            .instance("mmi1", "mmi")
            .instance_with("wg", "waveguide", &[("length", 5.0)])
            .connect("mmi1,O1", "wg,I1")
            .port("I1", "mmi1,I1")
            .port("O1", "wg,O1")
            .model("mmi", "mmi1x2")
            .model("waveguide", "waveguide")
            .build()
    }

    #[test]
    fn port_table_matches_sparams_models() {
        for model in picbench_sparams::builtin_models() {
            let expected = model.info().ports();
            let got = ports_of(model.info().name)
                .unwrap_or_else(|| panic!("missing table entry for {}", model.info().name));
            assert_eq!(
                got.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
                expected,
                "port mismatch for {}",
                model.info().name
            );
        }
        assert_eq!(
            BUILTIN_PORTS.len(),
            picbench_sparams::builtin_models().len()
        );
    }

    #[test]
    fn resolves_instance_ports_via_models_section() {
        let n = sample();
        assert_eq!(instance_model_ref(&n, "mmi1"), Some("mmi1x2"));
        assert_eq!(instance_ports(&n, "mmi1").unwrap(), &["I1", "O1", "O2"]);
        assert_eq!(instance_ports(&n, "nope"), None);
    }

    #[test]
    fn finds_unused_ports() {
        let n = sample();
        let free = unused_ports(&n);
        // mmi1,O2 is the only free port.
        assert_eq!(free, vec![("mmi1".to_string(), "O2".to_string())]);
    }

    /// The original quadratic scan, kept as the oracle for the linear one.
    fn unused_ports_oracle(netlist: &Netlist) -> Vec<(String, String)> {
        let used: Vec<String> = netlist
            .all_endpoint_refs()
            .iter()
            .map(|pr| pr.to_string())
            .collect();
        let mut free = Vec::new();
        for (name, _) in netlist.instances.iter() {
            if let Some(ports) = instance_ports(netlist, name) {
                for port in ports {
                    let key = format!("{name},{port}");
                    if !used.contains(&key) {
                        free.push((name.to_string(), (*port).to_string()));
                    }
                }
            }
        }
        free
    }

    #[test]
    fn linear_scan_matches_the_quadratic_oracle_on_every_golden() {
        let mut nonempty = 0;
        for problem in picbench_problems::suite() {
            let free = unused_ports(&problem.golden);
            assert_eq!(free, unused_ports_oracle(&problem.golden), "{}", problem.id);
            nonempty += usize::from(!free.is_empty());
        }
        assert!(nonempty > 0, "no golden exercises a free port");
        let n = sample();
        assert_eq!(unused_ports(&n), unused_ports_oracle(&n));
    }

    #[test]
    fn bogus_port_is_never_real() {
        let n = sample();
        let bogus = bogus_port(&n, "mmi1").unwrap();
        assert!(!instance_ports(&n, "mmi1")
            .unwrap()
            .contains(&bogus.as_str()));
        // The classic Fig. 4 mistake: I2 on a 1x2 MMI.
        assert_eq!(bogus, "I2");
    }
}
