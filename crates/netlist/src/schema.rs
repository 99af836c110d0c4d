//! The netlist data model and its JSON mapping.
//!
//! The document layout follows the paper's system prompt (Fig. 3):
//!
//! ```json
//! {
//!   "netlist": {
//!     "instances": {
//!       "mmi1": "mmi",
//!       "ps1": {"component": "phaseshifter", "settings": {"phase": 1.57}}
//!     },
//!     "connections": { "mmi1,O1": "ps1,I1" },
//!     "ports": { "I1": "mmi1,I1", "O1": "ps1,O1" }
//!   },
//!   "models": { "mmi": "mmi1x2", "phaseshifter": "phaseshifter" }
//! }
//! ```
//!
//! `instances` maps instance names to component types (optionally with
//! settings); `models` binds component types to built-in model references;
//! `connections` joins instance ports pairwise; `ports` exposes external
//! ports.

use crate::json::{self, Value};
use crate::OrderedMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A reference to one port of one instance, serialized as
/// `"instance,port"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// Instance name.
    pub instance: String,
    /// Port name on that instance.
    pub port: String,
}

impl PortRef {
    /// Creates a port reference.
    pub fn new(instance: impl Into<String>, port: impl Into<String>) -> Self {
        PortRef {
            instance: instance.into(),
            port: port.into(),
        }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{}", self.instance, self.port)
    }
}

/// Error when a `"instance,port"` string is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePortRefError {
    /// The offending text.
    pub text: String,
}

impl fmt::Display for ParsePortRefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid port reference {:?}: expected \"<instance>,<port>\"",
            self.text
        )
    }
}

impl Error for ParsePortRefError {}

impl FromStr for PortRef {
    type Err = ParsePortRefError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(2, ',');
        let instance = parts.next().unwrap_or("").trim();
        let port = parts.next().unwrap_or("").trim();
        if instance.is_empty() || port.is_empty() || port.contains(',') {
            return Err(ParsePortRefError {
                text: s.to_string(),
            });
        }
        Ok(PortRef::new(instance, port))
    }
}

/// One instantiated component.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Instance {
    /// Component type name (bound to a model by the `models` section).
    pub component: String,
    /// Parameter overrides.
    pub settings: OrderedMap<f64>,
}

impl Instance {
    /// Creates an instance of a component with default settings.
    pub fn new(component: impl Into<String>) -> Self {
        Instance {
            component: component.into(),
            settings: OrderedMap::new(),
        }
    }

    /// Adds a setting (builder style).
    pub fn with_setting(mut self, name: impl Into<String>, value: f64) -> Self {
        self.settings.insert(name.into(), value);
        self
    }
}

/// A pairwise connection between two instance ports.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Connection {
    /// First endpoint (the JSON key).
    pub a: PortRef,
    /// Second endpoint (the JSON value).
    pub b: PortRef,
}

/// A complete design document: netlist sections plus model bindings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Netlist {
    /// Instance name → component.
    pub instances: OrderedMap<Instance>,
    /// Pairwise port connections.
    pub connections: Vec<Connection>,
    /// External port name → internal instance port.
    pub ports: OrderedMap<PortRef>,
    /// Component type → built-in model reference.
    pub models: OrderedMap<String>,
}

/// Structural error while interpreting parsed JSON as a netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// A required section is missing.
    MissingSection {
        /// Section name, e.g. `"netlist"` or `"instances"`.
        section: &'static str,
    },
    /// A node has the wrong JSON type.
    WrongType {
        /// Dotted path of the offending node.
        path: String,
        /// Expected type name.
        expected: &'static str,
        /// Found type name.
        found: &'static str,
    },
    /// A `"instance,port"` string did not parse.
    BadPortRef {
        /// Dotted path of the offending node.
        path: String,
        /// The malformed text.
        text: String,
    },
    /// A settings value was not numeric.
    NonNumericSetting {
        /// Instance name.
        instance: String,
        /// Parameter name.
        param: String,
        /// Found type name.
        found: &'static str,
    },
    /// A model binding was not a string reference (the
    /// instances/models-confusion signature).
    ModelRefNotString {
        /// Component key in the `models` section.
        component: String,
        /// Found type name.
        found: &'static str,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::MissingSection { section } => {
                write!(f, "required section '{section}' is missing")
            }
            SchemaError::WrongType {
                path,
                expected,
                found,
            } => write!(f, "'{path}' must be a {expected}, found {found}"),
            SchemaError::BadPortRef { path, text } => write!(
                f,
                "'{path}' contains invalid port reference {text:?}: expected \"<instance>,<port>\""
            ),
            SchemaError::NonNumericSetting {
                instance,
                param,
                found,
            } => write!(
                f,
                "setting '{param}' of instance '{instance}' must be a number, found {found}"
            ),
            SchemaError::ModelRefNotString { component, found } => write!(
                f,
                "models entry '{component}' must be a string model reference like \"<ref>\", found {found}"
            ),
        }
    }
}

impl Error for SchemaError {}

impl Netlist {
    /// Interprets a parsed JSON document as a netlist.
    ///
    /// # Errors
    ///
    /// Returns the first [`SchemaError`] encountered.
    pub fn from_value(v: &Value) -> Result<Netlist, SchemaError> {
        let root = v.as_object().ok_or(SchemaError::WrongType {
            path: "$".into(),
            expected: "object",
            found: v.type_name(),
        })?;
        let _ = root;

        let netlist_v = v
            .get("netlist")
            .ok_or(SchemaError::MissingSection { section: "netlist" })?;
        let instances_v = netlist_v
            .get("instances")
            .ok_or(SchemaError::MissingSection {
                section: "instances",
            })?;
        let connections_v = netlist_v
            .get("connections")
            .ok_or(SchemaError::MissingSection {
                section: "connections",
            })?;
        let ports_v = netlist_v
            .get("ports")
            .ok_or(SchemaError::MissingSection { section: "ports" })?;
        let models_v = v
            .get("models")
            .ok_or(SchemaError::MissingSection { section: "models" })?;

        // Instances.
        let mut instances = OrderedMap::new();
        let inst_entries = instances_v.as_object().ok_or(SchemaError::WrongType {
            path: "netlist.instances".into(),
            expected: "object",
            found: instances_v.type_name(),
        })?;
        for (name, spec) in inst_entries {
            let instance = match spec {
                Value::String(component) => Instance::new(component.clone()),
                Value::Object(_) => {
                    let component = spec
                        .get("component")
                        .ok_or(SchemaError::MissingSection {
                            section: "component",
                        })?
                        .as_str()
                        .ok_or_else(|| SchemaError::WrongType {
                            path: format!("netlist.instances.{name}.component"),
                            expected: "string",
                            found: spec.get("component").map_or("null", Value::type_name),
                        })?;
                    let mut instance = Instance::new(component);
                    if let Some(settings_v) = spec.get("settings") {
                        let entries = settings_v.as_object().ok_or(SchemaError::WrongType {
                            path: format!("netlist.instances.{name}.settings"),
                            expected: "object",
                            found: settings_v.type_name(),
                        })?;
                        for (param, value) in entries {
                            let num = value.as_f64().ok_or(SchemaError::NonNumericSetting {
                                instance: name.clone(),
                                param: param.clone(),
                                found: value.type_name(),
                            })?;
                            instance.settings.insert(param.clone(), num);
                        }
                    }
                    instance
                }
                other => {
                    return Err(SchemaError::WrongType {
                        path: format!("netlist.instances.{name}"),
                        expected: "string or object",
                        found: other.type_name(),
                    })
                }
            };
            instances.insert(name.clone(), instance);
        }

        // Connections.
        let mut connections = Vec::new();
        let conn_entries = connections_v.as_object().ok_or(SchemaError::WrongType {
            path: "netlist.connections".into(),
            expected: "object",
            found: connections_v.type_name(),
        })?;
        for (from, to_v) in conn_entries {
            let a: PortRef = from.parse().map_err(|_| SchemaError::BadPortRef {
                path: "netlist.connections".into(),
                text: from.clone(),
            })?;
            let to = to_v.as_str().ok_or_else(|| SchemaError::WrongType {
                path: format!("netlist.connections.{from}"),
                expected: "string",
                found: to_v.type_name(),
            })?;
            let b: PortRef = to.parse().map_err(|_| SchemaError::BadPortRef {
                path: format!("netlist.connections.{from}"),
                text: to.to_string(),
            })?;
            connections.push(Connection { a, b });
        }

        // External ports.
        let mut ports = OrderedMap::new();
        let port_entries = ports_v.as_object().ok_or(SchemaError::WrongType {
            path: "netlist.ports".into(),
            expected: "object",
            found: ports_v.type_name(),
        })?;
        for (name, target_v) in port_entries {
            let target = target_v.as_str().ok_or_else(|| SchemaError::WrongType {
                path: format!("netlist.ports.{name}"),
                expected: "string",
                found: target_v.type_name(),
            })?;
            let pr: PortRef = target.parse().map_err(|_| SchemaError::BadPortRef {
                path: format!("netlist.ports.{name}"),
                text: target.to_string(),
            })?;
            ports.insert(name.clone(), pr);
        }

        // Models.
        let mut models = OrderedMap::new();
        let model_entries = models_v.as_object().ok_or(SchemaError::WrongType {
            path: "models".into(),
            expected: "object",
            found: models_v.type_name(),
        })?;
        for (component, ref_v) in model_entries {
            let model_ref = ref_v
                .as_str()
                .ok_or_else(|| SchemaError::ModelRefNotString {
                    component: component.clone(),
                    found: ref_v.type_name(),
                })?;
            models.insert(component.clone(), model_ref.to_string());
        }

        Ok(Netlist {
            instances,
            connections,
            ports,
            models,
        })
    }

    /// Parses a JSON string directly into a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistParseError`] wrapping either a JSON or a schema
    /// error.
    pub fn from_json_str(text: &str) -> Result<Netlist, NetlistParseError> {
        let value = json::parse(text).map_err(NetlistParseError::Json)?;
        Netlist::from_value(&value).map_err(NetlistParseError::Schema)
    }

    /// Converts the netlist back to a JSON value in the canonical layout.
    pub fn to_value(&self) -> Value {
        let mut inst_entries = Vec::new();
        for (name, inst) in self.instances.iter() {
            let v = if inst.settings.is_empty() {
                Value::String(inst.component.clone())
            } else {
                let settings = Value::Object(
                    inst.settings
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Number(*v)))
                        .collect(),
                );
                Value::Object(vec![
                    (
                        "component".to_string(),
                        Value::String(inst.component.clone()),
                    ),
                    ("settings".to_string(), settings),
                ])
            };
            inst_entries.push((name.to_string(), v));
        }

        let conn_entries = self
            .connections
            .iter()
            .map(|c| (c.a.to_string(), Value::String(c.b.to_string())))
            .collect();

        let port_entries = self
            .ports
            .iter()
            .map(|(name, pr)| (name.to_string(), Value::String(pr.to_string())))
            .collect();

        let model_entries = self
            .models
            .iter()
            .map(|(component, model_ref)| (component.to_string(), Value::String(model_ref.clone())))
            .collect();

        Value::Object(vec![
            (
                "netlist".to_string(),
                Value::Object(vec![
                    ("instances".to_string(), Value::Object(inst_entries)),
                    ("connections".to_string(), Value::Object(conn_entries)),
                    ("ports".to_string(), Value::Object(port_entries)),
                ]),
            ),
            ("models".to_string(), Value::Object(model_entries)),
        ])
    }

    /// Serializes to pretty-printed JSON.
    ///
    /// Writes straight from the netlist, without building a [`Value`]
    /// tree; the text is byte-identical to
    /// `json::to_string_pretty(&self.to_value())`.
    pub fn to_json_string(&self) -> String {
        let entries =
            self.instances.len() + self.connections.len() + self.ports.len() + self.models.len();
        let mut out = String::with_capacity(128 + 48 * entries);
        self.write_json(&mut out);
        out
    }

    /// Appends [`Netlist::to_json_string`]'s text to `out`.
    pub fn write_json(&self, out: &mut String) {
        let mut root = PrettyObject::open(out, 0);
        root.key(out, "netlist");
        let mut netlist = PrettyObject::open(out, 1);

        netlist.key(out, "instances");
        let mut instances = PrettyObject::open(out, 2);
        for (name, inst) in self.instances.iter() {
            instances.key(out, name);
            if inst.settings.is_empty() {
                json::escape_into(out, &inst.component);
                continue;
            }
            let mut spec = PrettyObject::open(out, 3);
            spec.key(out, "component");
            json::escape_into(out, &inst.component);
            spec.key(out, "settings");
            let mut settings = PrettyObject::open(out, 4);
            for (param, value) in inst.settings.iter() {
                settings.key(out, param);
                json::write_number(out, *value);
            }
            settings.close(out);
            spec.close(out);
        }
        instances.close(out);

        netlist.key(out, "connections");
        let mut connections = PrettyObject::open(out, 2);
        for c in &self.connections {
            connections.entry(out);
            write_port_ref(out, &c.a);
            out.push_str(": ");
            write_port_ref(out, &c.b);
        }
        connections.close(out);

        netlist.key(out, "ports");
        let mut ports = PrettyObject::open(out, 2);
        for (name, pr) in self.ports.iter() {
            ports.key(out, name);
            write_port_ref(out, pr);
        }
        ports.close(out);
        netlist.close(out);

        root.key(out, "models");
        let mut models = PrettyObject::open(out, 1);
        for (component, model_ref) in self.models.iter() {
            models.key(out, component);
            json::escape_into(out, model_ref);
        }
        models.close(out);
        root.close(out);
    }

    /// Removes an instance together with everything that references it:
    /// its connections, the external ports targeting it, and — when no
    /// other instance uses the same component — its model binding.
    /// Returns `false` (leaving the netlist untouched) when no instance
    /// of that name exists.
    ///
    /// Structural validity is preserved: a valid netlist stays valid
    /// because every dangling reference is dropped along with the
    /// instance. This is the primitive counterexample shrinkers are
    /// built from.
    pub fn remove_instance(&mut self, name: &str) -> bool {
        let Some(removed) = self.instances.remove(name) else {
            return false;
        };
        self.connections
            .retain(|c| c.a.instance != name && c.b.instance != name);
        let orphaned_ports: Vec<String> = self
            .ports
            .iter()
            .filter(|(_, pr)| pr.instance == name)
            .map(|(port, _)| port.to_string())
            .collect();
        for port in orphaned_ports {
            self.ports.remove(&port);
        }
        let component_still_used = self
            .instances
            .iter()
            .any(|(_, inst)| inst.component == removed.component);
        if !component_still_used {
            self.models.remove(&removed.component);
        }
        true
    }

    /// All connection endpoints plus external port targets — every
    /// instance-port usage in the document.
    pub fn all_endpoint_refs(&self) -> Vec<&PortRef> {
        let mut refs: Vec<&PortRef> = Vec::new();
        for c in &self.connections {
            refs.push(&c.a);
            refs.push(&c.b);
        }
        for (_, pr) in self.ports.iter() {
            refs.push(pr);
        }
        refs
    }
}

/// An object being written in [`json::to_string_pretty`]'s layout.
struct PrettyObject {
    level: usize,
    empty: bool,
}

impl PrettyObject {
    fn open(out: &mut String, level: usize) -> Self {
        out.push('{');
        PrettyObject { level, empty: true }
    }

    /// Starts an entry; the caller writes its quoted key.
    fn entry(&mut self, out: &mut String) {
        if !self.empty {
            out.push(',');
        }
        self.empty = false;
        json::newline_indent(out, json::PRETTY_INDENT, self.level + 1);
    }

    /// Starts an entry and writes its key; the caller writes the value.
    fn key(&mut self, out: &mut String, key: &str) {
        self.entry(out);
        json::escape_into(out, key);
        out.push_str(": ");
    }

    fn close(self, out: &mut String) {
        if !self.empty {
            json::newline_indent(out, json::PRETTY_INDENT, self.level);
        }
        out.push('}');
    }
}

/// Writes a port reference as its `"instance,port"` string literal.
fn write_port_ref(out: &mut String, pr: &PortRef) {
    out.push('"');
    json::push_escaped(out, &pr.instance);
    out.push(',');
    json::push_escaped(out, &pr.port);
    out.push('"');
}

/// Error from [`Netlist::from_json_str`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistParseError {
    /// The text is not valid JSON.
    Json(json::JsonError),
    /// The JSON does not have the netlist structure.
    Schema(SchemaError),
}

impl fmt::Display for NetlistParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistParseError::Json(e) => write!(f, "JSON error: {e}"),
            NetlistParseError::Schema(e) => write!(f, "schema error: {e}"),
        }
    }
}

impl Error for NetlistParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetlistParseError::Json(e) => Some(e),
            NetlistParseError::Schema(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MZI_PS: &str = r#"{
      "netlist": {
        "instances": {
          "mmi1": "mmi",
          "mmi2": "mmi",
          "waveBottom": {"component": "waveguide", "settings": {"length": 20}},
          "phaseShifter": {"component": "phaseshifter", "settings": {"length": 10}}
        },
        "connections": {
          "mmi1,O1": "waveBottom,I1",
          "waveBottom,O1": "mmi2,O1",
          "mmi1,O2": "phaseShifter,I1",
          "phaseShifter,O1": "mmi2,O2"
        },
        "ports": {
          "I1": "mmi1,I1",
          "O1": "mmi2,I1"
        }
      },
      "models": {
        "mmi": "mmi1x2",
        "waveguide": "waveguide",
        "phaseshifter": "phaseshifter"
      }
    }"#;

    #[test]
    fn parses_the_paper_example() {
        let n = Netlist::from_json_str(MZI_PS).unwrap();
        assert_eq!(n.instances.len(), 4);
        assert_eq!(n.connections.len(), 4);
        assert_eq!(n.ports.len(), 2);
        assert_eq!(n.models.len(), 3);
        assert_eq!(
            n.instances
                .get("waveBottom")
                .unwrap()
                .settings
                .get("length"),
            Some(&20.0)
        );
        assert_eq!(n.models.get("mmi").map(String::as_str), Some("mmi1x2"));
        assert_eq!(n.ports.get("O1"), Some(&PortRef::new("mmi2", "I1")));
    }

    #[test]
    fn portref_parsing() {
        let pr: PortRef = "mmi1,O2".parse().unwrap();
        assert_eq!(pr, PortRef::new("mmi1", "O2"));
        assert_eq!(pr.to_string(), "mmi1,O2");
        assert!(" spaced , O1 ".parse::<PortRef>().is_ok());
        assert!("noport".parse::<PortRef>().is_err());
        assert!(",".parse::<PortRef>().is_err());
        assert!("a,b,c".parse::<PortRef>().is_err());
        assert!("a,".parse::<PortRef>().is_err());
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let n = Netlist::from_json_str(MZI_PS).unwrap();
        let text = n.to_json_string();
        let n2 = Netlist::from_json_str(&text).unwrap();
        assert_eq!(n, n2);
    }

    #[test]
    fn direct_writer_matches_the_value_tree_on_edge_cases() {
        let pretty = |n: &Netlist| json::to_string_pretty(&n.to_value());
        let empty = Netlist::default();
        assert_eq!(
            empty.to_json_string(),
            "{\n  \"netlist\": {\n    \"instances\": {},\n    \"connections\": {},\n    \
             \"ports\": {}\n  },\n  \"models\": {}\n}"
        );
        assert_eq!(empty.to_json_string(), pretty(&empty));

        let mut odd = Netlist::default();
        let mut inst = Instance::new("wave\"guide\\\n\u{1}");
        for (param, value) in [
            ("neg_zero", -0.0),
            ("nan", f64::NAN),
            ("inf", f64::INFINITY),
            ("neg_inf", f64::NEG_INFINITY),
            ("big", 1e15),
            ("bigger", 123_456_789_012_345_680.0),
            ("huge", 1e300),
            ("fraction", 0.1),
            ("negative", -2.5e-9),
            ("int", 42.0),
        ] {
            inst.settings.insert(param.to_string(), value);
        }
        odd.instances.insert("tab\tname".to_string(), inst);
        odd.instances
            .insert("plain".to_string(), Instance::new("mmi"));
        odd.connections.push(Connection {
            a: PortRef::new("tab\tname", "O\"1"),
            b: PortRef::new("plain", "I1"),
        });
        odd.ports
            .insert("I\\1".to_string(), PortRef::new("plain", "O1"));
        odd.models
            .insert("wave\"guide\\\n\u{1}".to_string(), "waveguide".to_string());
        odd.models.insert("mmi".to_string(), "mmi1x2".to_string());
        let text = odd.to_json_string();
        assert_eq!(text, pretty(&odd));
        for lexeme in [
            "\"neg_zero\": -0",
            "\"nan\": null",
            "\"inf\": null",
            "\"big\": 1000000000000000",
            "\"fraction\": 0.1",
            "\"int\": 42",
            "\\u0001",
            "\"tab\\tname,O\\\"1\": \"plain,I1\"",
        ] {
            assert!(text.contains(lexeme), "{lexeme} missing from {text}");
        }

        let mut out = String::from("prefix ");
        odd.write_json(&mut out);
        assert_eq!(out, format!("prefix {text}"));
    }

    #[test]
    fn missing_sections_are_reported() {
        let err = Netlist::from_json_str(r#"{"models": {}}"#).unwrap_err();
        assert!(matches!(
            err,
            NetlistParseError::Schema(SchemaError::MissingSection { section: "netlist" })
        ));
        let err = Netlist::from_json_str(
            r#"{"netlist": {"instances": {}, "connections": {}, "ports": {}}}"#,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            NetlistParseError::Schema(SchemaError::MissingSection { section: "models" })
        ));
    }

    #[test]
    fn model_ref_must_be_string() {
        let text = r#"{
          "netlist": {"instances": {}, "connections": {}, "ports": {}},
          "models": {"mmi1x2": {"component": "mmi"}}
        }"#;
        let err = Netlist::from_json_str(text).unwrap_err();
        match err {
            NetlistParseError::Schema(SchemaError::ModelRefNotString { component, found }) => {
                assert_eq!(component, "mmi1x2");
                assert_eq!(found, "object");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn non_numeric_setting_is_reported() {
        let text = r#"{
          "netlist": {
            "instances": {"wg": {"component": "waveguide", "settings": {"length": "ten"}}},
            "connections": {},
            "ports": {}
          },
          "models": {"waveguide": "waveguide"}
        }"#;
        let err = Netlist::from_json_str(text).unwrap_err();
        assert!(matches!(
            err,
            NetlistParseError::Schema(SchemaError::NonNumericSetting { .. })
        ));
    }

    #[test]
    fn bad_portref_in_connection() {
        let text = r#"{
          "netlist": {
            "instances": {"a": "waveguide"},
            "connections": {"a": "b,I1"},
            "ports": {}
          },
          "models": {"waveguide": "waveguide"}
        }"#;
        let err = Netlist::from_json_str(text).unwrap_err();
        assert!(matches!(
            err,
            NetlistParseError::Schema(SchemaError::BadPortRef { .. })
        ));
    }

    #[test]
    fn endpoint_refs_cover_connections_and_ports() {
        let n = Netlist::from_json_str(MZI_PS).unwrap();
        let refs = n.all_endpoint_refs();
        assert_eq!(refs.len(), 4 * 2 + 2);
    }

    #[test]
    fn remove_instance_drops_all_references() {
        let mut n = Netlist::from_json_str(MZI_PS).unwrap();
        assert!(n.remove_instance("mmi2"));
        assert!(!n.instances.contains_key("mmi2"));
        assert!(n.all_endpoint_refs().iter().all(|pr| pr.instance != "mmi2"));
        // "mmi" is still used by mmi1, so the binding survives; removing
        // the unique phaseShifter takes its binding with it.
        assert!(n.models.contains_key("mmi"));
        assert!(n.remove_instance("phaseShifter"));
        assert!(!n.models.contains_key("phaseshifter"));
        assert!(!n.remove_instance("phantom"));
    }

    #[test]
    fn json_error_passthrough() {
        let err = Netlist::from_json_str("not json").unwrap_err();
        assert!(matches!(err, NetlistParseError::Json(_)));
        assert!(err.to_string().contains("JSON error"));
    }
}
