//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing framework.
//!
//! Implements the API surface this workspace's property tests use —
//! [`Strategy`](strategy::Strategy) with `prop_map` / `prop_flat_map`, range and tuple
//! strategies, [`collection::vec`], [`Just`](strategy::Just), [`prop_oneof!`], the
//! [`proptest!`] test macro and `prop_assert*` — with one simplification:
//! failing cases are **not shrunk**; the failing input is reported by the
//! panic message of the assertion that tripped.
//!
//! Sampling is fully deterministic: each generated test derives its RNG seed
//! from the test's name, so failures reproduce across runs and machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The glob-import module used by every property test.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Declares property tests.
///
/// Each function takes `pattern in strategy` arguments; the macro expands it
/// into a `#[test]` that samples `config.cases` inputs and runs the body on
/// each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = $cfg:expr;
        $(
            $(#[$attr:meta])*
            fn $name:ident($($pat:pat_param in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config = $cfg;
                let strategies = ($($strategy,)+);
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for _case in 0..config.cases {
                    let ($($pat,)+) =
                        $crate::strategy::Strategy::sample(&strategies, &mut rng);
                    // Property bodies may `return Ok(())` to skip a case
                    // (upstream returns Result), so run them in a closure.
                    let outcome = (move || -> ::core::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > {
                        $body
                        Ok(())
                    })();
                    outcome.expect("property case failed");
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test (panics on failure; the shim
/// does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Skips the current case when its sampled inputs don't satisfy a
/// precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(Box::new($strategy) as Box<dyn $crate::strategy::Strategy<Value = _>>,)+
        ])
    };
}
