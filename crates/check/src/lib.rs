//! # npr-check — in-repo property testing
//!
//! A small deterministic property-test harness, replacing the
//! `proptest` crate so the workspace builds with **zero external
//! dependencies** (the hermetic-build policy; see DESIGN.md §"Hermetic
//! build").
//!
//! The macro surface is deliberately `proptest!`-compatible: a ported
//! test keeps its body and parameter list, and only the crate paths
//! change (`proptest::` → `npr_check::`):
//!
//! ```
//! use npr_check::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(64))]
//!     #[test]
//!     fn addition_commutes(a: u16, b in 0u16..100) {
//!         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     }
//! }
//! ```
//!
//! Properties run a fixed number of deterministic cases (the base seed
//! is derived from the property name; override with `NPR_CHECK_SEED` /
//! `NPR_CHECK_CASES`). On failure the input is **greedily shrunk**:
//! the runner retries ever-simpler candidates proposed by the
//! generator and reports the minimal counterexample it converges to,
//! together with the replay seed.

pub mod array;
pub mod collection;
mod gen;
pub mod json;
pub mod rng;
mod runner;
pub mod sample;

pub use gen::{any, Arbitrary, Full, Gen};
pub use rng::CheckRng;
pub use runner::{run_named, CaseResult, Config, ProptestConfig};

/// Everything a ported proptest module needs in scope.
pub mod prelude {
    pub use crate::gen::{any, Arbitrary, Gen};
    pub use crate::runner::{Config, ProptestConfig};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests. Compatible with the `proptest!` macro
/// subset used in this workspace: an optional
/// `#![proptest_config(expr)]` header, then `#[test]` functions whose
/// parameters are either `pat in generator` or `name: Type` (sugar
/// for `name in any::<Type>()`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__prop_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__prop_fns! { ($crate::Config::default()) $($rest)* }
    };
}

/// One generated `fn` per `#[test]` item in the block.
#[doc(hidden)]
#[macro_export]
macro_rules! __prop_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::__prop_run! {
                cfg = ($cfg); name = $name; pats = []; gens = [];
                params = [$($params)*]; body = $body
            }
        }
        $crate::__prop_fns! { ($cfg) $($rest)* }
    };
}

/// Parameter-list muncher: folds `pat in gen` / `name: Type` params
/// into a tuple pattern and a tuple generator, then emits the runner
/// call.
#[doc(hidden)]
#[macro_export]
macro_rules! __prop_run {
    // `mut name in generator`
    (cfg = $cfg:tt; name = $name:ident; pats = [$($pats:tt)*]; gens = [$($gens:expr,)*];
     params = [mut $p:ident in $g:expr, $($rest:tt)*]; body = $body:block) => {
        $crate::__prop_run! { cfg = $cfg; name = $name; pats = [$($pats)* (mut $p)];
            gens = [$($gens,)* $g,]; params = [$($rest)*]; body = $body }
    };
    (cfg = $cfg:tt; name = $name:ident; pats = [$($pats:tt)*]; gens = [$($gens:expr,)*];
     params = [mut $p:ident in $g:expr]; body = $body:block) => {
        $crate::__prop_run! { cfg = $cfg; name = $name; pats = [$($pats)* (mut $p)];
            gens = [$($gens,)* $g,]; params = []; body = $body }
    };
    // `name in generator`
    (cfg = $cfg:tt; name = $name:ident; pats = [$($pats:tt)*]; gens = [$($gens:expr,)*];
     params = [$p:ident in $g:expr, $($rest:tt)*]; body = $body:block) => {
        $crate::__prop_run! { cfg = $cfg; name = $name; pats = [$($pats)* ($p)];
            gens = [$($gens,)* $g,]; params = [$($rest)*]; body = $body }
    };
    (cfg = $cfg:tt; name = $name:ident; pats = [$($pats:tt)*]; gens = [$($gens:expr,)*];
     params = [$p:ident in $g:expr]; body = $body:block) => {
        $crate::__prop_run! { cfg = $cfg; name = $name; pats = [$($pats)* ($p)];
            gens = [$($gens,)* $g,]; params = []; body = $body }
    };
    // `name: Type` == `name in any::<Type>()`
    (cfg = $cfg:tt; name = $name:ident; pats = [$($pats:tt)*]; gens = [$($gens:expr,)*];
     params = [$p:ident : $t:ty, $($rest:tt)*]; body = $body:block) => {
        $crate::__prop_run! { cfg = $cfg; name = $name; pats = [$($pats)* ($p)];
            gens = [$($gens,)* $crate::any::<$t>(),]; params = [$($rest)*]; body = $body }
    };
    (cfg = $cfg:tt; name = $name:ident; pats = [$($pats:tt)*]; gens = [$($gens:expr,)*];
     params = [$p:ident : $t:ty]; body = $body:block) => {
        $crate::__prop_run! { cfg = $cfg; name = $name; pats = [$($pats)* ($p)];
            gens = [$($gens,)* $crate::any::<$t>(),]; params = []; body = $body }
    };
    // All parameters consumed: run.
    (cfg = ($cfg:expr); name = $name:ident; pats = [$(($($pat:tt)+))*]; gens = [$($gens:expr,)*];
     params = []; body = $body:block) => {{
        let __config: $crate::Config = $cfg;
        let __gen = ($($gens,)*);
        $crate::run_named(stringify!($name), &__config, &__gen, |__case| {
            let ($($($pat)+,)*) = __case;
            $body
            ::core::result::Result::Ok(())
        });
    }};
}

/// Asserts inside a property body; on failure the case fails (and
/// shrinks) instead of panicking the whole test immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(::std::format!(
                "{} at {}:{}", ::std::format!($($fmt)+), ::core::file!(), ::core::line!()
            ));
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?} == {:?}`", __l, __r
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?} == {:?}`: {}", __l, __r, ::std::format!($($fmt)+)
        );
    }};
}

/// Inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?} != {:?}`", __l, __r
        );
    }};
}

#[cfg(test)]
mod macro_tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn typed_params_and_generators_mix(
            a: u16,
            b in 0u32..50,
            mut v in crate::collection::vec(any::<u8>(), 1..8),
        ) {
            v.push(0);
            prop_assert!(b < 50);
            prop_assert!(!v.is_empty());
            prop_assert_eq!(u32::from(a) + b, b + u32::from(a));
            prop_assert_ne!(v.len(), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        /// Doc comments between config and test must parse.
        #[test]
        fn config_header_is_honoured(_x: u64) {
            COUNT.with(|c| c.set(c.get() + 1));
        }
    }

    thread_local! {
        static COUNT: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn block_defines_runnable_tests() {
        typed_params_and_generators_mix();
        config_header_is_honoured();
        if std::env::var("NPR_CHECK_CASES").is_err() {
            assert_eq!(COUNT.with(|c| c.get()), 7);
        }
    }

    proptest! {
        #[test]
        fn trailing_comma_single_param(seed: u64,) {
            prop_assert!(seed == seed);
        }
    }

    #[test]
    fn single_param_runs() {
        trailing_comma_single_param();
    }
}
