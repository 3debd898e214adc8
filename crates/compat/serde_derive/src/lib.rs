//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline serde
//! shim.
//!
//! `syn` and `quote` are not available offline, so the input item is parsed
//! directly from the [`proc_macro::TokenStream`] and the generated impls are
//! assembled as source text. Supported shapes — everything this workspace
//! derives on:
//!
//! * structs with named fields → JSON object in declaration order; a field
//!   whose type is written `Option<…>` (bare or path-qualified — the derive
//!   sees tokens, so an alias hides it) is omitted when `None`, and an
//!   absent key (or `null`) reads back as `None`,
//! * newtype structs (`struct NodeId(usize)`) → serialized transparently,
//! * tuple structs with ≥ 2 fields → JSON array,
//! * unit structs → `null`,
//! * fieldless enums → the variant-name string.
//!
//! Generic parameters and data-carrying enum variants are rejected with a
//! compile error naming the offending item.

#![warn(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim's `serde::Serialize` (conversion to `serde::Value`).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.kind {
        Kind::UnitStruct => "::serde::Value::Null".to_string(),
        Kind::NewtypeStruct => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", elems.join(", "))
        }
        Kind::NamedStruct(fields) => {
            // Every field is an optional `(key, value)` pair, so the `None`
            // of an `Option` field drops out.
            let pairs: Vec<String> = fields
                .iter()
                .map(|Field { name: f, optional }| {
                    let field = if *optional {
                        format!("self.{f}.as_ref()")
                    } else {
                        format!("::std::option::Option::Some(&self.{f})")
                    };
                    format!(
                        "{field}.map(|value| (::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(value)))"
                    )
                })
                .collect();
            format!(
                "let pairs: [::std::option::Option<(::std::string::String, ::serde::Value)>; {}] \
                     = [{}];\n\
                 ::serde::Value::Object(pairs.into_iter().flatten().collect())",
                pairs.len(),
                pairs.join(", ")
            )
        }
        Kind::FieldlessEnum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    format!(
                        "{name}::{v} => \
                         ::serde::Value::String(::std::string::String::from(\"{v}\"))"
                    )
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives the shim's `serde::Deserialize` (reconstruction from
/// `serde::Value`).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.kind {
        Kind::UnitStruct => format!("::std::result::Result::Ok({name})"),
        Kind::NewtypeStruct => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(value)?))")
        }
        Kind::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| {
                    format!(
                        "::serde::Deserialize::from_value(\
                             items.get({i}).ok_or_else(|| ::serde::Error::custom(\
                                 \"missing element {i} of {name}\"))?)?"
                    )
                })
                .collect();
            format!(
                "match value {{\n\
                     ::serde::Value::Array(items) => \
                         ::std::result::Result::Ok({name}({elems})),\n\
                     _ => ::std::result::Result::Err(::serde::Error::custom(\
                         \"expected array for {name}\")),\n\
                 }}",
                elems = elems.join(", ")
            )
        }
        Kind::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|Field { name: f, optional }| {
                    if *optional {
                        // An absent key and `null` both read as `None`.
                        return format!(
                            "{f}: value.get_field(\"{f}\")\
                                 .map(::serde::Deserialize::from_value)\
                                 .transpose()?\
                                 .flatten()"
                        );
                    }
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\
                             value.get_field(\"{f}\").ok_or_else(|| \
                                 ::serde::Error::custom(\
                                     \"missing field `{f}` in {name}\"))?)?"
                    )
                })
                .collect();
            format!(
                "::std::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Kind::FieldlessEnum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    format!(
                        "::std::option::Option::Some(\"{v}\") => \
                         ::std::result::Result::Ok({name}::{v})"
                    )
                })
                .collect();
            format!(
                "match value.as_str() {{\n\
                     {arms},\n\
                     _ => ::std::result::Result::Err(::serde::Error::custom(\
                         \"unknown variant for {name}\")),\n\
                 }}",
                arms = arms.join(",\n")
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(value: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Input parsing
// ---------------------------------------------------------------------------

struct Item {
    name: String,
    kind: Kind,
}

enum Kind {
    UnitStruct,
    NewtypeStruct,
    TupleStruct(usize),
    NamedStruct(Vec<Field>),
    FieldlessEnum(Vec<String>),
}

struct Field {
    name: String,
    /// The type is written `Option<…>`: omitted when `None`, and `None`
    /// when its key is absent.
    optional: bool,
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    skip_attrs_and_vis(&mut tokens);

    let keyword = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected item name, got {other:?}"),
    };
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }

    let kind = match (keyword.as_str(), tokens.next()) {
        ("struct", None) | ("struct", Some(TokenTree::Punct(_))) => Kind::UnitStruct,
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Kind::NamedStruct(parse_named_fields(g.stream()))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            match count_tuple_fields(g.stream()) {
                1 => Kind::NewtypeStruct,
                n => Kind::TupleStruct(n),
            }
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Kind::FieldlessEnum(parse_fieldless_variants(&name, g.stream()))
        }
        (kw, body) => panic!("serde shim derive: unsupported item `{kw}` with body {body:?}"),
    };
    Item { name, kind }
}

/// Skips leading `#[...]` attributes (including doc comments) and a `pub` /
/// `pub(...)` visibility prefix.
fn skip_attrs_and_vis(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if matches!(
                    tokens.peek(),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    tokens.next();
                }
            }
            _ => return,
        }
    }
}

/// Collects the fields of `{ field: Type, ... }`, reading each type up to
/// the next comma outside `<...>` (angle brackets are plain puncts, so
/// nesting must be tracked by hand).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after `{name}`, got {other:?}"),
        }
        let ty = take_type_to_comma(&mut tokens);
        fields.push(Field {
            name,
            optional: is_option(&ty),
        });
    }
    fields
}

/// Whether a type's tokens read `Option<…>`, possibly behind a path such
/// as `std::option::`: the name before the first `<` is `Option`.
fn is_option(ty: &[TokenTree]) -> bool {
    let open = ty
        .iter()
        .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == '<'));
    matches!(open, Some(i) if i > 0
        && matches!(&ty[i - 1], TokenTree::Ident(id) if id.to_string() == "Option"))
}

/// Counts top-level comma-separated fields of a tuple struct body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut tokens = stream.into_iter().peekable();
    let mut count = 0;
    while tokens.peek().is_some() {
        skip_attrs_and_vis(&mut tokens);
        if tokens.peek().is_none() {
            break; // trailing comma
        }
        count += 1;
        take_type_to_comma(&mut tokens);
    }
    count
}

/// Consumes tokens of one type expression up to (and including) the next
/// top-level `,`, and returns the type's tokens.
fn take_type_to_comma(
    tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>,
) -> Vec<TokenTree> {
    let mut ty = Vec::new();
    let mut angle_depth = 0usize;
    for tok in tokens.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => return ty,
                _ => {}
            }
        }
        ty.push(tok);
    }
    ty
}

/// Collects variant names from a fieldless enum body, rejecting
/// data-carrying variants.
fn parse_fieldless_variants(enum_name: &str, stream: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut tokens);
        let variant = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        match tokens.next() {
            None => {
                variants.push(variant);
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => variants.push(variant),
            Some(TokenTree::Group(_)) => panic!(
                "serde shim derive: enum `{enum_name}` variant `{variant}` carries data, \
                 which the offline shim does not support"
            ),
            other => panic!(
                "serde shim derive: unexpected token after `{enum_name}::{variant}`: {other:?}"
            ),
        }
    }
    variants
}
