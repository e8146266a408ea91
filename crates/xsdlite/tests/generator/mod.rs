//! The seeded schema-document generator the differential suites share
//! (`compiler_differential.rs`, `reachable_differential.rs`): five
//! namespace dialects, re-bound prefixes, wrappers, annotations with
//! mixed content, ignored subtrees, forward or backward references
//! between complex types, and at most one injected defect.

const NS_1999: &str = "http://www.w3.org/1999/XMLSchema";
const NS_2001: &str = "http://www.w3.org/2001/XMLSchema";

/// splitmix64: the generator needs repeatability, not quality.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// How a document spells XML Schema markup and datatype references.
struct Dialect {
    /// Attributes of the root element.
    root_attrs: String,
    /// Prefix (with its colon) of schema markup elements.
    markup: &'static str,
    /// Prefix (with its colon) of primitive datatype references.
    datatype: &'static str,
}

fn dialect(rng: &mut Rng) -> Dialect {
    match rng.below(5) {
        0 => Dialect {
            root_attrs: format!(" xmlns:xsd=\"{NS_1999}\""),
            markup: "xsd:",
            datatype: "xsd:",
        },
        1 => Dialect {
            root_attrs: format!(" xmlns:xs='{NS_2001}'"),
            markup: "xs:",
            datatype: "xs:",
        },
        // A default namespace for the markup, a prefix for datatypes.
        2 => Dialect {
            root_attrs: format!(" xmlns=\"{NS_2001}\" xmlns:t=\"{NS_1999}\""),
            markup: "",
            datatype: "t:",
        },
        // The conventional prefix, never declared.
        3 => Dialect { root_attrs: String::new(), markup: "xsd:", datatype: "xsd:" },
        // An unconventional prefix for everything.
        _ => Dialect {
            root_attrs: format!(" xmlns:q=\"{NS_2001}\" xmlns:unused=\"urn:elsewhere\""),
            markup: "q:",
            datatype: "q:",
        },
    }
}

const PRIMITIVES: [&str; 17] = [
    "string", "boolean", "byte", "unsignedByte", "unsigned-byte", "short", "unsignedShort",
    "int", "integer", "unsignedInt", "unsigned-int", "long", "unsignedLong", "unsigned-long",
    "float", "double", "unsigned-short",
];

/// A defect to inject into an otherwise valid document.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Defect {
    None,
    ElementWithoutName,
    ElementWithoutType,
    UnknownPrimitive,
    UnknownNamedType,
    DuplicateElement,
    DuplicateType,
    UnsupportedConstruct,
    ZeroMaxOccurs,
    MismatchedOccurs,
    MissingCountField,
    NonIntegerCountField,
    Recursion,
    TypeWithoutName,
    SimpleTypeWithoutRestriction,
    RestrictionWithoutBase,
    UnknownFacet,
    NonNumericFacet,
    FacetWithoutValue,
    UnknownRestrictionBase,
    NotASchema,
}

const DEFECTS: [Defect; 20] = [
    Defect::ElementWithoutName,
    Defect::ElementWithoutType,
    Defect::UnknownPrimitive,
    Defect::UnknownNamedType,
    Defect::DuplicateElement,
    Defect::DuplicateType,
    Defect::UnsupportedConstruct,
    Defect::ZeroMaxOccurs,
    Defect::MismatchedOccurs,
    Defect::MissingCountField,
    Defect::NonIntegerCountField,
    Defect::Recursion,
    Defect::TypeWithoutName,
    Defect::SimpleTypeWithoutRestriction,
    Defect::RestrictionWithoutBase,
    Defect::UnknownFacet,
    Defect::NonNumericFacet,
    Defect::FacetWithoutValue,
    Defect::UnknownRestrictionBase,
    Defect::NotASchema,
];

fn filler(rng: &mut Rng, out: &mut String) {
    match rng.below(6) {
        0 => out.push_str("\n  "),
        1 => out.push_str("\n\t<!-- a comment -->\n"),
        2 => out.push(' '),
        3 => out.push_str("\r\n    "),
        _ => {}
    }
}

/// An annotation whose documentation exercises every kind of content
/// `text_content` sees: text, entities, CDATA, nested elements, blank
/// runs, comments, a second (ignored) documentation child.
fn annotation(rng: &mut Rng, d: &Dialect, out: &mut String) {
    let m = d.markup;
    out.push_str(&format!("<{m}annotation>"));
    filler(rng, out);
    if rng.chance(20) {
        out.push_str(&format!("<{m}appinfo>not <b>this</b></{m}appinfo>"));
    }
    if rng.chance(85) {
        out.push_str(&format!("<{m}documentation>"));
        for _ in 0..rng.below(5) {
            match rng.below(7) {
                0 => out.push_str("  plain words "),
                1 => out.push_str("a &lt; b &amp; c"),
                2 => out.push_str("<![CDATA[ raw <cdata> ]]>"),
                3 => out.push_str("<em>nested <i>deeper</i></em>"),
                4 => out.push_str("\n    "),
                5 => out.push_str("<!-- hidden -->"),
                _ => out.push_str("<br/> &#32; <br/>"),
            }
        }
        out.push_str(&format!("</{m}documentation>"));
        if rng.chance(25) {
            out.push_str(&format!("<{m}documentation>second, ignored</{m}documentation>"));
        }
    }
    filler(rng, out);
    out.push_str(&format!("</{m}annotation>"));
}

fn simple_type(rng: &mut Rng, d: &Dialect, index: usize, defect: Defect, out: &mut String) {
    let (m, t) = (d.markup, d.datatype);
    out.push_str(&format!("<{m}simpleType name=\"Simple{index}\">"));
    filler(rng, out);
    if rng.chance(30) {
        annotation(rng, d, out);
    }
    if defect == Defect::SimpleTypeWithoutRestriction {
        out.push_str(&format!("<{m}list itemType=\"{t}int\"/></{m}simpleType>"));
        return;
    }
    let base = if defect == Defect::UnknownRestrictionBase {
        "NoSuchSimple".to_owned()
    } else if index > 0 && rng.chance(40) {
        format!("Simple{}", rng.below(index))
    } else {
        format!("{t}{}", rng.pick(&["int", "string", "double", "unsigned-long"]))
    };
    if defect == Defect::RestrictionWithoutBase {
        out.push_str(&format!("<{m}restriction>"));
    } else {
        out.push_str(&format!("<{m}restriction base=\"{base}\">"));
    }
    for _ in 0..rng.below(4) {
        filler(rng, out);
        match rng.below(8) {
            0 => out.push_str(&format!("<{m}minInclusive value=\" {} \"/>", rng.below(50))),
            1 => out.push_str(&format!("<{m}maxInclusive value=\"{}.5\"/>", rng.below(500))),
            2 => out.push_str(&format!("<{m}minExclusive value=\"-{}\"/>", rng.below(9))),
            3 => out.push_str(&format!("<{m}maxExclusive value=\"1e{}\"/>", rng.below(9))),
            4 => out.push_str(&format!("<{m}minLength value=\"{}\"/>", rng.below(4))),
            5 => out.push_str(&format!("<{m}maxLength value=\"{}\"><x/></{m}maxLength>", rng.below(64))),
            6 => out.push_str(&format!(
                "<{m}enumeration value=\"v{}\"/><{m}enumeration value=\"a &amp; b\"/>",
                rng.below(9)
            )),
            _ => annotation(rng, d, out),
        }
    }
    match defect {
        Defect::UnknownFacet => out.push_str(&format!("<{m}pattern value=\"[a-z]+\"/>")),
        Defect::NonNumericFacet => out.push_str(&format!("<{m}maxLength value=\"many\"/>")),
        Defect::FacetWithoutValue => out.push_str(&format!("<{m}minInclusive/>")),
        _ => {}
    }
    filler(rng, out);
    out.push_str(&format!("</{m}restriction>"));
    if rng.chance(15) {
        out.push_str(&format!("<{m}restriction base=\"{t}nonsense\"/>"));
    }
    out.push_str(&format!("</{m}simpleType>"));
}

#[allow(clippy::too_many_arguments)]
fn complex_type(
    rng: &mut Rng,
    d: &Dialect,
    index: usize,
    types: usize,
    simples: usize,
    refs_point_forward: bool,
    defect: Defect,
    out: &mut String,
) {
    // A type may re-bind the document's prefix to something else and
    // carry on under a prefix of its own.
    let rebound = !d.markup.is_empty() && rng.chance(20);
    let scoped;
    let d = if rebound {
        scoped = Dialect { root_attrs: String::new(), markup: "own:", datatype: "own:" };
        &scoped
    } else {
        d
    };
    let (m, t) = (d.markup, d.datatype);
    let name = if defect == Defect::DuplicateType && index == types - 1 && index > 0 {
        "Type0".to_owned()
    } else {
        format!("Type{index}")
    };
    out.push_str(&format!("<{m}complexType"));
    if rebound {
        out.push_str(&format!(" xmlns:own=\"{NS_2001}\" xmlns:xsd=\"urn:rebound\" xmlns:xs=\"urn:rebound\" xmlns:q=\"urn:rebound\""));
    }
    if !(defect == Defect::TypeWithoutName && index == 0) {
        out.push_str(&format!(" name=\"{name}\""));
    }
    out.push('>');
    filler(rng, out);
    if rng.chance(35) {
        annotation(rng, d, out);
    }
    let wrappers = rng.below(3);
    let wrapper_names: Vec<&str> = (0..wrappers).map(|_| rng.pick(&["sequence", "all"])).collect();
    for w in &wrapper_names {
        out.push_str(&format!("<{m}{w}>"));
        filler(rng, out);
    }
    let fields = 1 + rng.below(6);
    let here = index == 0;
    for f in 0..fields {
        filler(rng, out);
        let field = format!("f{f}");
        let type_attr = if types > 1 && rng.chance(20) {
            // Acyclic by construction: references only ever point one way.
            let target = if refs_point_forward {
                (index + 1 < types).then(|| index + 1 + rng.below(types - index - 1))
            } else {
                (index > 0).then(|| rng.below(index))
            };
            match target {
                Some(target) => format!("Type{target}"),
                None => format!("{t}int"),
            }
        } else if simples > 0 && rng.chance(20) {
            format!("Simple{}", rng.below(simples))
        } else {
            format!("{t}{}", PRIMITIVES[rng.below(PRIMITIVES.len())])
        };
        let quote = if rng.chance(25) { '\'' } else { '"' };
        let mut tag = format!("<{m}element name={quote}{field}{quote} type={quote}{type_attr}{quote}");
        match rng.below(12) {
            0 => tag.push_str(" minOccurs=\"5\" maxOccurs=\"5\""),
            1 => tag.push_str(" maxOccurs=\"3\""),
            2 => tag.push_str(" minOccurs=\"0\" maxOccurs=\"*\""),
            3 => tag.push_str(" maxOccurs=\"unbounded\""),
            4 => tag.push_str(" minOccurs=\"1\" maxOccurs=\"1\""),
            5 => tag.push_str(" minOccurs=\"0\""),
            6 => {
                // A counted array; its integer count element goes before
                // or after it.
                let count =
                    format!("<{m}element name=\"{field}_n\" type=\"{t}integer\" ignored=\"yes\"/>");
                tag.push_str(&format!(" maxOccurs=\"{field}_n\""));
                if rng.chance(50) {
                    out.push_str(&count);
                    tag.push_str("/>");
                } else {
                    tag.push_str("/>");
                    tag.push_str(&count);
                }
                out.push_str(&tag);
                continue;
            }
            _ => {}
        }
        if rng.chance(15) {
            // Children of an element declaration are not looked at.
            tag.push_str(&format!("><{m}annotation><{m}documentation>x</{m}documentation></{m}annotation><junk a=\"1\"/></{m}element>"));
        } else {
            tag.push_str(if rng.chance(50) { "/>" } else { " />" });
        }
        out.push_str(&tag);
        if here && f == 0 {
            match defect {
                Defect::ElementWithoutName => out.push_str(&format!("<{m}element type=\"{t}int\"/>")),
                Defect::ElementWithoutType => out.push_str(&format!("<{m}element name=\"untyped\"/>")),
                Defect::UnknownPrimitive => out.push_str(&format!("<{m}element name=\"q\" type=\"{t}quaternion\"/>")),
                Defect::UnknownNamedType => out.push_str(&format!("<{m}element name=\"n\" type=\"NoSuchType\"/>")),
                Defect::DuplicateElement => out.push_str(&format!("<{m}element name=\"f0\" type=\"{t}int\"/>")),
                Defect::UnsupportedConstruct => out.push_str(&format!("<{m}attribute name=\"a\" type=\"{t}int\"/>")),
                Defect::ZeroMaxOccurs => out.push_str(&format!("<{m}element name=\"z\" type=\"{t}int\" maxOccurs=\"0\"/>")),
                Defect::MismatchedOccurs => out.push_str(&format!("<{m}element name=\"mm\" type=\"{t}int\" minOccurs=\"2\" maxOccurs=\"7\"/>")),
                Defect::MissingCountField => out.push_str(&format!("<{m}element name=\"c\" type=\"{t}int\" maxOccurs=\"nowhere\"/>")),
                Defect::NonIntegerCountField => out.push_str(&format!(
                    "<{m}element name=\"c\" type=\"{t}int\" maxOccurs=\"cn\"/><{m}element name=\"cn\" type=\"{t}string\"/>"
                )),
                Defect::Recursion => out.push_str(&format!("<{m}element name=\"me\" type=\"Type0\"/>")),
                _ => {}
            }
        }
    }
    for w in wrapper_names.iter().rev() {
        filler(rng, out);
        out.push_str(&format!("</{m}{w}>"));
    }
    filler(rng, out);
    out.push_str(&format!("</{m}complexType>"));
}

/// One schema document; `with_defects` allows (not forces) an injected
/// defect.
pub fn document(seed: u64, with_defects: bool) -> String {
    generate(seed, with_defects).0
}

/// [`document`], and the defect injected into it (`Defect::None` if
/// none was).
pub fn generate(seed: u64, with_defects: bool) -> (String, Defect) {
    let mut rng = Rng(seed);
    let rng = &mut rng;
    let d = dialect(rng);
    let defect = if with_defects && rng.chance(35) {
        DEFECTS[rng.below(DEFECTS.len())]
    } else {
        Defect::None
    };
    let mut out = String::new();
    if rng.chance(50) {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    }
    if rng.chance(20) {
        out.push_str("<!-- generated -->\n");
    }
    let m = d.markup;
    let root = if defect == Defect::NotASchema { "definitions" } else { "schema" };
    out.push_str(&format!("<{m}{root}{}", d.root_attrs));
    if rng.chance(60) {
        out.push_str(" targetNamespace=\"urn:generated &amp; escaped\"");
    }
    out.push('>');
    let simples = rng.below(3);
    let types = 1 + rng.below(5);
    let refs_point_forward = rng.chance(50);
    // Simple types go first or last; complex types may use them either way.
    let simples_first = rng.chance(50);
    let emit_simples = |rng: &mut Rng, out: &mut String| {
        // A defect of the simple-type kind needs a simple type to sit in.
        let count = if simples == 0 && defect_is_simple(defect) { 1 } else { simples };
        for s in 0..count {
            filler(rng, out);
            let inject = if s == count - 1 { defect } else { Defect::None };
            simple_type(rng, &d, s, inject, out);
        }
    };
    if simples_first {
        emit_simples(rng, &mut out);
    }
    for index in 0..types {
        filler(rng, &mut out);
        match rng.below(8) {
            0 => annotation(rng, &d, &mut out),
            1 => out.push_str(&format!("<{m}import namespace=\"urn:x\"><{m}complexType/></{m}import>")),
            2 => out.push_str("<foreign:thing xmlns:foreign=\"urn:f\" name=\"ignored\"/>"),
            _ => {}
        }
        complex_type(rng, &d, index, types, simples, refs_point_forward, defect, &mut out);
    }
    if !simples_first {
        emit_simples(rng, &mut out);
    }
    filler(rng, &mut out);
    out.push_str(&format!("</{m}{root}>"));
    if rng.chance(30) {
        out.push_str("\n<!-- trailer -->\n");
    }
    (out, defect)
}

fn defect_is_simple(defect: Defect) -> bool {
    matches!(
        defect,
        Defect::SimpleTypeWithoutRestriction
            | Defect::RestrictionWithoutBase
            | Defect::UnknownFacet
            | Defect::NonNumericFacet
            | Defect::FacetWithoutValue
            | Defect::UnknownRestrictionBase
    )
}
