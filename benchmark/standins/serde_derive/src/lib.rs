//! Stand-in for `serde_derive`: both derives accept the `#[serde(..)]`
//! helper attribute and expand to nothing (the `serde` stand-in
//! blanket-implements its marker traits).

use proc_macro::TokenStream;

/// `#[derive(Serialize)]`: no generated code.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// `#[derive(Deserialize)]`: no generated code.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
