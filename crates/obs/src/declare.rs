//! Declare a metric once: [`metrics!`](crate::metrics) and
//! [`histograms!`](crate::histograms) turn one line — kind, field, doc
//! comment — into the live cell, the serde snapshot field and the
//! `const` descriptor that [`TextExposition`](crate::TextExposition)
//! walks (DESIGN.md §9). Live cells are plain public fields bumped with
//! `Relaxed`; nothing is looked up by name on a hot path.

/// Whether a series only ever grows or reports a current value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic; the series name ends in `_total`.
    Counter,
    /// Goes up and down; rendered signed.
    Gauge,
}

/// One declared scalar series: all `/metrics` needs besides the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDesc {
    /// The exposed series name (`_total` included for counters).
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The declaring field's doc comment (exposition trims it).
    pub help: &'static str,
}

/// One declared distribution; the exposition prefixes `name` with `esr_`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramDesc {
    /// Name in a stats snapshot, with a unit suffix (`fsync_micros`).
    pub name: &'static str,
    /// The declaring field's doc comment.
    pub help: &'static str,
}

/// Declare a group of scalar series as a serde snapshot struct and, with
/// `/ Live`, the struct of `AtomicU64`s behind it.
///
/// ```
/// esr_obs::metrics! {
///     /// A point-in-time copy of the cache counters.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
///     pub struct CacheSnapshot / CacheStats {
///         series "esr_cache_" {
///             /// Lookups served from memory.
///             counter hits,
///             /// Entries held right now.
///             gauge resident,
///             /// Lookups refused.
///             counter refusals = "esr_cache_denied",
///         }
///     }
/// }
/// let live = CacheStats::default();
/// live.hits.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(live.snapshot().hits, 2);
/// assert_eq!(live.snapshot().values(), [2, 0, 0]);
/// assert_eq!(CacheSnapshot::METRICS[0].name, "esr_cache_hits_total");
/// assert_eq!(CacheSnapshot::METRICS[2].name, "esr_cache_denied_total");
/// assert_eq!(CacheSnapshot::METRICS[1].help.trim(), "Entries held right now.");
/// ```
///
/// A series is named prefix + field (`= "name"` replaces both) plus
/// `_total` for a counter, typed `u64` unless it says otherwise (`gauge
/// in_flight: i64`), and helped by its doc comment. `METRICS` and
/// `values()` follow field order. `since()` (with `/ Live`) subtracts
/// counters, saturating, and keeps the later gauges. A series' other
/// attributes (`#[serde(default)]` on one added after its snapshot first
/// shipped) go on the snapshot field only. Non-series fields go verbatim
/// in `fields { .. }` blocks before and after `series`, which fixes their
/// place in the wire encoding.
#[macro_export]
macro_rules! metrics {
    (@snapshot [$($sattr:tt)*] $snap:ident {
        $(fields { $($head:tt)* })?
        series $prefix:literal {
            $( $(#[$($attr:tt)*])* $kind:ident $field:ident $(: $ty:ty)? $(= $name:literal)? ),+ $(,)?
        }
        $(fields { $($tail:tt)* })?
    }) => {
        $($sattr)*
        pub struct $snap {
            $($($head)*)?
            $( $(#[$($attr)*])* pub $field: $crate::metrics!(@ty $($ty)?), )+
            $($($tail)*)?
        }

        impl $snap {
            /// One descriptor per declared series, in field order.
            pub const METRICS: &'static [$crate::MetricDesc] = &[
                $( $crate::MetricDesc {
                    name: $crate::metrics!(@name $kind $prefix $field $($name)?),
                    kind: $crate::metrics!(@kind $kind),
                    help: $crate::metrics!(@help [] $(#[$($attr)*])*),
                }, )+
            ];

            /// The declared series' values, in [`Self::METRICS`] order.
            #[allow(clippy::unnecessary_cast)]
            pub fn values(&self) -> [u64; Self::METRICS.len()] {
                [ $( self.$field as u64, )+ ]
            }
        }
    };

    (@live $snap:ident $live:ident {
        series $prefix:literal {
            $( $(#[$($attr:tt)*])* $kind:ident $field:ident $(: $ty:ty)? $(= $name:literal)? ),+ $(,)?
        }
    }) => {
        #[doc = concat!(
            "The live cells behind [`", stringify!($snap), "`]: bump a field with a \
             relaxed atomic, read them all with [`Self::snapshot`]."
        )]
        #[derive(Debug, Default)]
        pub struct $live {
            // Docs only: the snapshot's other attributes (`#[serde(..)]`)
            // mean nothing on an atomic.
            $(
                #[doc = $crate::metrics!(@help [] $(#[$($attr)*])*)]
                pub $field: ::std::sync::atomic::AtomicU64,
            )+
        }

        impl $live {
            /// A zeroed set.
            pub fn new() -> Self {
                Self::default()
            }

            /// Copy the current values.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        impl $snap {
            /// What happened after `earlier`: counters subtract
            /// (saturating), gauges keep this snapshot's value. Isolates
            /// a measurement window from warm-up.
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $field: $crate::metrics!(@since $kind self earlier $field), )+
                }
            }
        }
    };

    (@name counter $prefix:literal $field:ident) => { concat!($prefix, stringify!($field), "_total") };
    (@name gauge $prefix:literal $field:ident) => { concat!($prefix, stringify!($field)) };
    (@name counter $prefix:literal $field:ident $name:literal) => { concat!($name, "_total") };
    (@name gauge $prefix:literal $field:ident $name:literal) => { $name };
    (@ty) => { u64 };
    (@ty $ty:ty) => { $ty };
    (@kind counter) => { $crate::MetricKind::Counter };
    (@kind gauge) => { $crate::MetricKind::Gauge };
    (@since counter $now:ident $earlier:ident $field:ident) => {
        $now.$field.saturating_sub($earlier.$field)
    };
    (@since gauge $now:ident $earlier:ident $field:ident) => { $now.$field };

    // A field's help is its doc comment: keep the `doc` attributes,
    // skip the rest (`#[serde(default)]`), join the lines.
    (@help [$($doc:literal)*] #[doc = $line:literal] $($rest:tt)*) => {
        $crate::metrics!(@help [$($doc)* $line] $($rest)*)
    };
    (@help [$($doc:literal)*] #[$($other:tt)*] $($rest:tt)*) => {
        $crate::metrics!(@help [$($doc)*] $($rest)*)
    };
    (@help [$($doc:literal)*]) => { concat!($($doc),*) };

    ($(#[$($sattr:tt)*])* pub struct $snap:ident / $live:ident $body:tt) => {
        $crate::metrics!(@snapshot [$(#[$($sattr)*])*] $snap $body);
        $crate::metrics!(@live $snap $live $body);
    };
    ($(#[$($sattr:tt)*])* pub struct $snap:ident $body:tt) => {
        $crate::metrics!(@snapshot [$(#[$($sattr)*])*] $snap $body);
    };
}

/// Declare a struct of public [`LatencyHistogram`](crate::LatencyHistogram)s,
/// each recorded into directly and snapshotted under its declared name.
///
/// ```
/// esr_obs::histograms! {
///     /// Where a flush spends its time.
///     pub struct FlushHistograms {
///         /// One `fdatasync` of the log, in microseconds.
///         fsync = "fsync_micros",
///     }
/// }
/// let h = FlushHistograms::default();
/// h.fsync.record(120);
/// assert_eq!(h.snapshots()[0].0, "fsync_micros");
/// assert_eq!(h.snapshots()[0].1.count, 1);
/// assert_eq!(FlushHistograms::HISTOGRAMS[0].help.trim(), "One `fdatasync` of the log, in microseconds.");
/// ```
#[macro_export]
macro_rules! histograms {
    ($(#[$sattr:meta])* pub struct $set:ident {
        $( $(#[doc = $doc:literal])+ $field:ident = $name:literal ),+ $(,)?
    }) => {
        $(#[$sattr])*
        #[derive(Debug, Default)]
        pub struct $set {
            $( $(#[doc = $doc])+ pub $field: $crate::LatencyHistogram, )+
        }

        impl $set {
            /// One descriptor per declared histogram, in field order.
            pub const HISTOGRAMS: &'static [$crate::HistogramDesc] = &[
                $( $crate::HistogramDesc { name: $name, help: concat!($($doc),+) }, )+
            ];

            /// Snapshot every histogram under its declared name.
            pub fn snapshots(&self) -> Vec<(&'static str, $crate::HistogramSnapshot)> {
                vec![ $( ($name, self.$field.snapshot()), )+ ]
            }
        }
    };
}
