//! The dimension-specialized predict→quantize scan pipeline.
//!
//! Every stage of the codec — compression, decompression, the adaptive
//! interval sampler, and the hit-rate estimators — performs the same
//! traversal: predict each point from already-visited neighbors with the
//! §III Eq. 11 multilayer predictor. [`ScanKernel`] owns that traversal
//! exactly once.
//!
//! A kernel is instantiated per *(layer count, stride family)*, not per
//! point. For the dominant configurations — 1-D/2-D/3-D grids with `n = 1`
//! (the Lorenzo predictor, the paper's default) or `n = 2` — the kernel
//! dispatches to closed-form loops whose Eq. 11 coefficients are unrolled as
//! constants, with an explicit interior fast path and a boundary slow path.
//! Everything else falls back to the generic [`StencilSet`] walker, so any
//! `(d, n)` the config layer validates still works.
//!
//! Because bands of a chunked tensor share their inner extents (and
//! therefore their strides), one kernel instance serves every band a
//! parallel worker compresses: [`ScanKernel::scan`] takes the band's
//! [`Shape`] per call and only the stride family is baked in.
//!
//! ## Wavefront row groups
//!
//! [`ScanKernel::scan`] drives a per-point visitor in row-major order — the
//! slow-path *oracle* the property tests pin everything against. The hot
//! paths run through [`ScanKernel::scan_rows`] instead. With write-back
//! feedback (§III: every prediction reads *decompressed* neighbors), a
//! row-major scan is one serial chain per row: predict → quantize →
//! reconstruct → narrow → widen → the next point's prediction. That chain's
//! latency, not its arithmetic, sets the cost of a point.
//!
//! `scan_rows` therefore walks consecutive rows of one row class (same
//! clamped leading coordinates) in groups of up to four, as a
//! one-column-skewed wavefront: in step `t`, row `q` of the group visits
//! column `t − q`. Every stencil the kernel serves reads only columns `≤ j`
//! of earlier rows, so the neighbors row `q` needs at column `j` were
//! finished a step earlier, and the CPU overlaps the group's independent
//! chains. Rows below the layer count (each its own row class) form groups
//! of one, and the last group of a plane is simply shorter.
//!
//! Each point keeps its exact `f64` expression tree: the finished-row
//! stencil terms are summed left to right in [`Stencil`]'s canonical order,
//! then the loop-carried last-axis terms are added (`+ prev` for one layer,
//! `+ 2·prev1 − prev2` for two). That is the order [`predict_at`] uses, so
//! wavefront, point, specialized and generic traversals produce identical
//! codes and byte-identical archives — pinned down by the property tests at
//! the bottom of this file and in `tests/wavefront_groups.rs`.
//!
//! The archive's streams stay in row-major scan order: within a group the
//! points arrive out of that order, so visitors write codes by index and
//! emit a group's escape bits at its end, walking it row by row; decoders
//! pull and check a group's symbols and decode its escapes by position
//! before its first point (see [`RowVisitor`]).
//!
//! The read-only sibling [`ScanKernel::readonly_rows`] has no write-back
//! feedback, so even the in-row terms are batchable: interior rows arrive
//! as fully materialized prediction slices.

use crate::float::ScalarFloat;
use crate::predict::{predict_at, Stencil, StencilSet};
use szr_tensor::Shape;

/// Rows per wavefront group: enough independent chains to keep the
/// out-of-order core busy. Eight rows measured no faster than four.
const GROUP_ROWS: usize = 4;

/// A group-granular visitor driven by [`ScanKernel::scan_rows`].
///
/// The scan cuts the grid into *groups*: runs of whole consecutive rows
/// (last-axis lines), each a contiguous flat range. For each group it calls
/// [`RowVisitor::begin_group`], then [`RowVisitor::point`] once per point
/// of the group, then [`RowVisitor::end_group`]. Groups arrive in flat
/// order.
///
/// Inside a group the points arrive in *wavefront* order, not row-major
/// order: row `q` of the group visits column `t − q` in step `t`. A visitor
/// must therefore write per-point results by index rather than push them,
/// and anything that must be serialized in scan order (escape bits, code
/// streams) is emitted at `end_group`, walking the group's range in
/// row-major order. Decoders do the reverse: `begin_group` pulls and
/// validates the group's symbols and decodes its escapes into a
/// position-indexed buffer before any point is visited.
///
/// Only the group hooks are fallible: the first error aborts the scan
/// immediately — the `try_scan` early-exit path corrupt-archive decoding
/// rides. Infallible visitors (compression) use
/// `Error = std::convert::Infallible`, which compiles the checks away.
pub trait RowVisitor<T: ScalarFloat> {
    /// Error type propagated out of [`ScanKernel::scan_rows`].
    type Error;

    /// Opens the group of points `start..start + len` (whole rows).
    fn begin_group(&mut self, start: usize, len: usize) -> std::result::Result<(), Self::Error> {
        let _ = (start, len);
        Ok(())
    }

    /// Visits one point of the open group. `pred` is the full Eq. 11
    /// prediction; the returned value is stored at `flat` and feeds later
    /// predictions.
    fn point(&mut self, flat: usize, pred: f64) -> T;

    /// Closes the group opened by the matching [`RowVisitor::begin_group`];
    /// every point of `start..start + len` has been visited.
    fn end_group(&mut self, start: usize, len: usize) -> std::result::Result<(), Self::Error> {
        let _ = (start, len);
        Ok(())
    }
}

/// Which traversal implementation a [`ScanKernel`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Closed-form loops for `ndim ∈ 1..=3`, `layers ∈ 1..=2`.
    Specialized {
        /// Grid rank.
        ndim: u8,
        /// Prediction layer count.
        layers: u8,
    },
    /// The HashMap-cached stencil walker (any rank, any layer count).
    Generic,
}

/// One predict→visit traversal engine, reusable across same-stride grids.
///
/// Construction picks the implementation once; [`ScanKernel::scan`] then
/// drives a visitor over every point. The visitor receives `(flat, pred)`
/// and returns the value to store at `flat` — the value later predictions
/// read, which is how the compressor feeds reconstructed (not original)
/// values forward exactly like the decompressor will.
pub struct ScanKernel {
    layers: usize,
    strides: Vec<usize>,
    kind: KernelKind,
    stencils: StencilSet,
    /// Interior stencil terms for the 3-D two-layer fast path (26 terms:
    /// looped over a dense slice instead of hand-unrolled).
    interior_terms: Vec<(usize, f64)>,
    /// Per-row-class plans for the wavefront and row traversals, indexed by
    /// the clamped leading coordinates (empty for generic kernels).
    row_plans: Vec<RowPlan>,
    /// Reusable partial-sum scratch row, grown to the longest row seen.
    /// Lives in the kernel so chunked workers, the streaming compressor, and
    /// the planner's samplers pay the allocation once per kernel, not per
    /// band or per call.
    row_scratch: Vec<f64>,
    /// Second scratch row for passes that need predictions and a derived
    /// per-point quantity at once (the sampler's interval magnitudes).
    aux_scratch: Vec<f64>,
}

/// The stencil of one row class (fixed clamped leading coordinates, full
/// last-axis layers), split at the prior/in-row boundary.
struct RowPlan {
    /// Canonical-order terms: `[..prior_len]` read finished rows,
    /// `[prior_len..]` are the in-row loop-carried terms.
    terms: Vec<(usize, f64)>,
    prior_len: usize,
}

impl ScanKernel {
    /// Builds a kernel for `layers`-layer prediction on grids with the given
    /// row-major `strides`, selecting a specialized implementation when one
    /// exists.
    ///
    /// # Panics
    /// Panics if `layers == 0` or `strides` is empty (rejected earlier by
    /// [`crate::Config::validate`] on every public path).
    pub fn new(layers: usize, strides: &[usize]) -> Self {
        let kind = if (1..=3).contains(&strides.len()) && (1..=2).contains(&layers) {
            KernelKind::Specialized {
                ndim: strides.len() as u8,
                layers: layers as u8,
            }
        } else {
            KernelKind::Generic
        };
        Self::with_kind(layers, strides, kind)
    }

    /// Builds a kernel that always uses the generic stencil walker, even for
    /// shapes a specialized kernel covers — the equivalence baseline used by
    /// the property tests and the `scan_kernel` benchmark.
    pub fn generic(layers: usize, strides: &[usize]) -> Self {
        Self::with_kind(layers, strides, KernelKind::Generic)
    }

    /// Convenience constructor from a concrete shape.
    pub fn for_shape(layers: usize, shape: &Shape) -> Self {
        Self::new(layers, shape.strides())
    }

    /// Find-or-create in a kernel cache keyed by *(layer count, stride
    /// family)* — the one definition of the cache policy, shared by
    /// [`crate::CodecSession`]'s compress side and the cached decode path.
    pub(crate) fn cache_index(
        kernels: &mut Vec<ScanKernel>,
        layers: usize,
        shape: &Shape,
    ) -> usize {
        match kernels
            .iter()
            .position(|k| k.layers() == layers && k.matches(shape))
        {
            Some(i) => i,
            None => {
                kernels.push(ScanKernel::for_shape(layers, shape));
                kernels.len() - 1
            }
        }
    }

    fn with_kind(layers: usize, strides: &[usize], kind: KernelKind) -> Self {
        assert!(layers >= 1, "ScanKernel requires at least one layer");
        assert!(
            !strides.is_empty(),
            "ScanKernel requires at least one dimension"
        );
        let d = strides.len();
        let interior_terms = if kind == (KernelKind::Specialized { ndim: 3, layers: 2 }) {
            Stencil::build(&vec![layers; d], strides).terms().to_vec()
        } else {
            Vec::new()
        };
        // Row classes: clamped leading coordinates, full last-axis layers.
        // At most (n+1)^(d−1) ≤ 9 tiny stencils for the specialized kinds.
        let row_plans = if matches!(kind, KernelKind::Specialized { .. }) {
            let lead = d - 1;
            let classes = (layers + 1).pow(lead as u32);
            (0..classes)
                .map(|mut c| {
                    let mut n_eff = vec![0usize; d];
                    n_eff[d - 1] = layers;
                    for axis in (0..lead).rev() {
                        n_eff[axis] = c % (layers + 1);
                        c /= layers + 1;
                    }
                    let stencil = Stencil::build(&n_eff, strides);
                    RowPlan {
                        prior_len: stencil.prior_terms().len(),
                        terms: stencil.terms().to_vec(),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            layers,
            strides: strides.to_vec(),
            kind,
            stencils: StencilSet::new(layers, strides),
            interior_terms,
            row_plans,
            row_scratch: Vec::new(),
            aux_scratch: Vec::new(),
        }
    }

    /// The selected implementation.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Prediction layer count the kernel was built for.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The stride family the kernel serves.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// True when `shape` belongs to this kernel's grid family (same rank and
    /// row-major strides; the leading extent is free, which is what lets
    /// chunked bands share one kernel).
    pub fn matches(&self, shape: &Shape) -> bool {
        shape.strides() == &self.strides[..]
    }

    /// Drives `visit` over every point of `shape` in row-major order.
    ///
    /// For each flat index the kernel computes the Eq. 11 prediction from
    /// the values already written to `buf` and stores the visitor's return
    /// value back at that index.
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `buf` is
    /// not exactly `shape.len()` long. The check is O(rank) per scan (not
    /// per point) and guards the specialized paths' unchecked stride
    /// arithmetic in release builds too.
    pub fn scan<T, F>(&mut self, shape: &Shape, buf: &mut [T], visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64) -> T,
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(buf.len(), shape.len(), "buffer length does not match shape");
        match self.kind {
            KernelKind::Specialized { ndim: 1, layers: 1 } => {
                scan_1d_n1(shape.dims()[0], buf, visit)
            }
            KernelKind::Specialized { ndim: 1, layers: 2 } => {
                scan_1d_n2(shape.dims()[0], buf, visit)
            }
            KernelKind::Specialized { ndim: 2, layers: 1 } => scan_2d_n1(
                shape.dims()[0],
                shape.dims()[1],
                self.strides[0],
                buf,
                visit,
            ),
            KernelKind::Specialized { ndim: 2, layers: 2 } => self.scan_2d_n2(shape, buf, visit),
            KernelKind::Specialized { ndim: 3, layers: 1 } => {
                let d = shape.dims();
                scan_3d_n1(
                    d[0],
                    d[1],
                    d[2],
                    self.strides[0],
                    self.strides[1],
                    buf,
                    visit,
                )
            }
            KernelKind::Specialized { ndim: 3, layers: 2 } => self.scan_3d_n2(shape, buf, visit),
            _ => self.scan_generic(shape, buf, visit),
        }
    }

    /// Drives a [`RowVisitor`] over every point of `shape` — the
    /// group-granular sibling of [`ScanKernel::scan`] and the traversal
    /// behind the compression/decompression hot paths.
    ///
    /// Specialized kernels cut every plane of rows into wavefront groups
    /// (see the module docs): groups of up to four rows of one row class,
    /// or of one row for the border rows.
    /// Within a group, row `q` visits column `t − q` in step `t`. Border
    /// columns (`j < layers`) take the shrunk per-point stencil; interior
    /// columns sum the row class's finished-row terms and add the
    /// loop-carried tail. Generic kernels (rank > 3 or
    /// layers > 2) visit in row-major order, one group per row. Either way
    /// every prediction equals the point oracle's bit for bit.
    ///
    /// The scan aborts at the visitor's first error, which only the group
    /// hooks raise — the `try_scan` path: decompression stops at the first
    /// corrupt group instead of decoding the full grid. Infallible visitors
    /// use `Error = std::convert::Infallible`.
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `buf` is
    /// not exactly `shape.len()` long (see [`ScanKernel::scan`]).
    pub fn scan_rows<T, V>(
        &mut self,
        shape: &Shape,
        buf: &mut [T],
        visitor: &mut V,
    ) -> std::result::Result<(), V::Error>
    where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(buf.len(), shape.len(), "buffer length does not match shape");
        if buf.is_empty() {
            return Ok(());
        }
        let dims = shape.dims();
        let len = dims[dims.len() - 1];
        if self.kind == KernelKind::Generic {
            let mut index = vec![0usize; shape.ndim()];
            for start in (0..buf.len()).step_by(len) {
                visitor.begin_group(start, len)?;
                for flat in start..start + len {
                    let pred = predict_at(buf, flat, self.stencils.for_index(&index));
                    buf[flat] = visitor.point(flat, pred);
                    shape.advance(&mut index);
                }
                visitor.end_group(start, len)?;
            }
            return Ok(());
        }
        match dims.len() {
            1 => self.group_pass(&[], 1, 0, len, buf, visitor),
            2 => self.plane_groups(&[], dims[0], 0, len, buf, visitor),
            _ => {
                for i in 0..dims[0] {
                    let base = i * self.strides[0];
                    self.plane_groups(&[i], dims[1], base, len, buf, visitor)?;
                }
                Ok(())
            }
        }
    }

    /// Cuts the `count` rows of one plane (rows `base + r·len`, whose
    /// leading coordinates are `outer` followed by `r`) into wavefront
    /// groups. Rows `r < layers` each have their own row class and go
    /// alone; the rest share one class and go in runs of [`GROUP_ROWS`],
    /// the last run shorter.
    #[allow(clippy::too_many_arguments)]
    fn plane_groups<T, V>(
        &mut self,
        outer: &[usize],
        count: usize,
        base: usize,
        len: usize,
        buf: &mut [T],
        visitor: &mut V,
    ) -> std::result::Result<(), V::Error>
    where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        let mut lead = [0usize; 2];
        lead[..outer.len()].copy_from_slice(outer);
        let axis = outer.len();
        let mut r = 0;
        while r < count {
            lead[axis] = r;
            let rows = if r < self.layers {
                1
            } else {
                GROUP_ROWS.min(count - r)
            };
            self.group_pass(&lead[..=axis], rows, base + r * len, len, buf, visitor)?;
            r += rows;
        }
        Ok(())
    }

    /// One wavefront group: `rows` consecutive rows of one row class, the
    /// first at `start` with leading coordinates `lead`, each `len` long.
    fn group_pass<T, V>(
        &mut self,
        lead: &[usize],
        rows: usize,
        start: usize,
        len: usize,
        buf: &mut [T],
        visitor: &mut V,
    ) -> std::result::Result<(), V::Error>
    where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        visitor.begin_group(start, rows * len)?;
        let Self {
            layers,
            stencils,
            row_plans,
            ..
        } = self;
        let plan = &row_plans[plan_index(*layers, lead)];
        let mut index = [0usize; 3];
        index[..lead.len()].copy_from_slice(lead);
        let group = Group {
            prior: &plan.terms[..plan.prior_len],
            index,
            axis: lead.len(),
            rows,
            start,
            len,
            layers: *layers,
        };
        group.wave(stencils, buf, visitor);
        visitor.end_group(start, rows * len)
    }

    /// Read-only row traversal: like [`ScanKernel::scan_rows`] but
    /// predicting every point from `data` in place, nothing written back.
    ///
    /// With no write-back feedback even the in-row terms are row-invariant,
    /// so `on_row` receives *complete* predictions for every interior row
    /// segment (`on_row(flat, preds)` covers points `flat..flat + preds.len()`);
    /// border points arrive through `on_point`. This is the traversal behind
    /// [`crate::hit_rate_by_layer`]'s `Original` basis.
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `data` is
    /// not exactly `shape.len()` long (see [`ScanKernel::scan`]).
    pub fn readonly_rows<T, P, R>(
        &mut self,
        shape: &Shape,
        data: &[T],
        mut on_point: P,
        mut on_row: R,
    ) where
        T: ScalarFloat,
        P: FnMut(usize, f64),
        R: FnMut(usize, &[f64]),
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(data.len(), shape.len(), "data length does not match shape");
        if self.kind == KernelKind::Generic {
            return self.readonly_generic(shape, data, on_point);
        }
        let dims = shape.dims();
        let d = dims.len();
        let d_last = dims[d - 1];
        let mut scratch = std::mem::take(&mut self.row_scratch);
        if scratch.len() < d_last {
            scratch.resize(d_last, 0.0);
        }
        match d {
            1 => self.readonly_row_pass(
                &[],
                0,
                d_last,
                &mut scratch,
                data,
                &mut on_point,
                &mut on_row,
            ),
            2 => {
                let s0 = self.strides[0];
                for i in 0..dims[0] {
                    self.readonly_row_pass(
                        &[i],
                        i * s0,
                        d_last,
                        &mut scratch,
                        data,
                        &mut on_point,
                        &mut on_row,
                    );
                }
            }
            _ => {
                let (s0, s1) = (self.strides[0], self.strides[1]);
                for i in 0..dims[0] {
                    for j in 0..dims[1] {
                        self.readonly_row_pass(
                            &[i, j],
                            i * s0 + j * s1,
                            d_last,
                            &mut scratch,
                            data,
                            &mut on_point,
                            &mut on_row,
                        );
                    }
                }
            }
        }
        self.row_scratch = scratch;
    }

    #[allow(clippy::too_many_arguments)]
    fn readonly_row_pass<T, P, R>(
        &mut self,
        lead: &[usize],
        base: usize,
        d_last: usize,
        scratch: &mut [f64],
        data: &[T],
        on_point: &mut P,
        on_row: &mut R,
    ) where
        T: ScalarFloat,
        P: FnMut(usize, f64),
        R: FnMut(usize, &[f64]),
    {
        let n = self.layers;
        let mut idx = [0usize; 3];
        idx[..lead.len()].copy_from_slice(lead);
        for j in 0..d_last.min(n) {
            idx[lead.len()] = j;
            let f = base + j;
            let pred = self.slow_pred(&idx[..=lead.len()], data, f);
            on_point(f, pred);
        }
        if d_last > n {
            let seg = base + n;
            let len = d_last - n;
            let plan = &self.row_plans[plan_index(self.layers, lead)];
            // Full term list: in-row neighbors read `data`, which is fixed,
            // so the whole prediction is batchable.
            fill_partials(&plan.terms, data, seg, &mut scratch[..len]);
            on_row(seg, &scratch[..len]);
        }
    }

    /// Drives `visit` over every point of `shape` in row-major order,
    /// predicting each point from the *original* values in `data` without
    /// writing anything back — the read-only sibling of [`ScanKernel::scan`].
    ///
    /// This is the traversal behind [`crate::hit_rate_by_layer`] with
    /// [`crate::PredictionBasis::Original`] and the planner's offset
    /// statistics: both want full-grid original-value prediction (borders
    /// included) and previously paid an input copy to reuse the write-back
    /// scan. Dispatch mirrors [`ScanKernel::scan`], so the specialized
    /// closed-form loops serve the same grid families.
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `data` is
    /// not exactly `shape.len()` long (see [`ScanKernel::scan`]).
    pub fn scan_readonly<T, F>(&mut self, shape: &Shape, data: &[T], visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(data.len(), shape.len(), "data length does not match shape");
        match self.kind {
            KernelKind::Specialized { ndim: 1, layers: 1 } => {
                readonly_1d_n1(shape.dims()[0], data, visit)
            }
            KernelKind::Specialized { ndim: 1, layers: 2 } => {
                readonly_1d_n2(shape.dims()[0], data, visit)
            }
            KernelKind::Specialized { ndim: 2, layers: 1 } => readonly_2d_n1(
                shape.dims()[0],
                shape.dims()[1],
                self.strides[0],
                data,
                visit,
            ),
            KernelKind::Specialized { ndim: 2, layers: 2 } => {
                self.readonly_2d_n2(shape, data, visit)
            }
            KernelKind::Specialized { ndim: 3, layers: 1 } => {
                let d = shape.dims();
                readonly_3d_n1(
                    d[0],
                    d[1],
                    d[2],
                    self.strides[0],
                    self.strides[1],
                    data,
                    visit,
                )
            }
            KernelKind::Specialized { ndim: 3, layers: 2 } => {
                self.readonly_3d_n2(shape, data, visit)
            }
            _ => self.readonly_generic(shape, data, visit),
        }
    }

    /// Visits every *interior* point whose flat index is a multiple of
    /// `stride`, predicting from `data` itself (read-only, original-value
    /// prediction) — the traversal behind the §IV-B adaptive interval
    /// sampler.
    ///
    /// Interior means every coordinate is `≥ layers`, so the full-strength
    /// stencil applies; border prediction is weaker and would bias a
    /// sampled estimate pessimistically.
    ///
    /// # Panics
    /// Panics if `shape` is outside this kernel's grid family or `data` is
    /// not exactly `shape.len()` long (see [`ScanKernel::scan`]).
    pub fn sample_interior<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(data.len(), shape.len(), "data length does not match shape");
        let stride = stride.max(1);
        // Dense sampling rides the row engine: interior-row predictions are
        // materialized wholesale by the vectorized full-term pass, then
        // visited at the sampling stride. Sparse sampling keeps the
        // closed-form point path, which only touches sampled points.
        if stride <= 4 && matches!(self.kind, KernelKind::Specialized { .. }) {
            return self.sample_rows(shape, data, stride, visit);
        }
        match self.kind {
            KernelKind::Specialized { ndim: 1, .. } => {
                self.sample_1d(shape.dims()[0], data, stride, visit)
            }
            KernelKind::Specialized { ndim: 2, .. } => self.sample_2d(shape, data, stride, visit),
            KernelKind::Specialized { ndim: 3, .. } => self.sample_3d(shape, data, stride, visit),
            _ => self.sample_generic(shape, data, stride, visit),
        }
    }

    /// Row-engine implementation of [`ScanKernel::sample_interior`] for
    /// dense strides: one vectorized full-prediction pass per interior row,
    /// then a strided visit over the materialized predictions.
    fn sample_rows<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        let dims = shape.dims();
        let d = dims.len();
        let d_last = dims[d - 1];
        if d_last <= n {
            return; // no interior columns
        }
        let mut scratch = std::mem::take(&mut self.row_scratch);
        if scratch.len() < d_last {
            scratch.resize(d_last, 0.0);
        }
        // The interior row class: every leading coordinate clamps to n.
        let interior = [n; 2];
        let plan = &self.row_plans[plan_index(n, &interior[..d - 1])];
        let len = d_last - n;
        let mut per_row = |base: usize, scratch: &mut [f64]| {
            let seg = base + n;
            fill_partials(&plan.terms, data, seg, &mut scratch[..len]);
            for f in strided(seg, seg + len, stride) {
                visit(f, scratch[f - seg]);
            }
        };
        match d {
            1 => per_row(0, &mut scratch),
            2 => {
                let s0 = self.strides[0];
                for i in n..dims[0] {
                    per_row(i * s0, &mut scratch);
                }
            }
            _ => {
                let (s0, s1) = (self.strides[0], self.strides[1]);
                for i in n..dims[0] {
                    for j in n..dims[1] {
                        per_row(i * s0 + j * s1, &mut scratch);
                    }
                }
            }
        }
        self.row_scratch = scratch;
    }

    /// [`ScanKernel::sample_interior`] specialized to the §IV-B sampler's
    /// per-point quantity: visits `|round((data[flat] − pred) / two_eb)|`
    /// for every sampled interior point, in the same order as
    /// [`ScanKernel::sample_interior`].
    ///
    /// On the dense row-engine path the divide/round/abs chain runs as one
    /// batched pass over each materialized prediction row (`k_pass`,
    /// pinned bit-identical to the per-point formula); elsewhere it runs
    /// the formula per point.
    ///
    /// # Panics
    /// Same contract as [`ScanKernel::sample_interior`].
    pub fn sample_interior_ks<T, F>(
        &mut self,
        shape: &Shape,
        data: &[T],
        stride: usize,
        two_eb: f64,
        mut visit: F,
    ) where
        T: ScalarFloat,
        F: FnMut(f64),
    {
        let stride_eff = stride.max(1);
        if !(stride_eff <= 4 && matches!(self.kind, KernelKind::Specialized { .. })) {
            // Sparse or generic sampling: the per-point formula on top of
            // the point-path traversal.
            self.sample_interior(shape, data, stride, |flat, pred| {
                visit(round_abs((data[flat].to_f64() - pred) / two_eb));
            });
            return;
        }
        assert!(
            self.matches(shape),
            "shape {shape} outside kernel stride family {:?}",
            self.strides
        );
        assert_eq!(data.len(), shape.len(), "data length does not match shape");
        let n = self.layers;
        let dims = shape.dims();
        let d = dims.len();
        let d_last = dims[d - 1];
        if d_last <= n {
            return; // no interior columns
        }
        let mut scratch = std::mem::take(&mut self.row_scratch);
        let mut ks = std::mem::take(&mut self.aux_scratch);
        if scratch.len() < d_last {
            scratch.resize(d_last, 0.0);
        }
        if ks.len() < d_last {
            ks.resize(d_last, 0.0);
        }
        let interior = [n; 2];
        let plan = &self.row_plans[plan_index(n, &interior[..d - 1])];
        let len = d_last - n;
        let mut per_row = |base: usize, scratch: &mut [f64], ks: &mut [f64]| {
            let seg = base + n;
            fill_partials(&plan.terms, data, seg, &mut scratch[..len]);
            k_pass(
                &mut ks[..len],
                &data[seg..seg + len],
                &scratch[..len],
                two_eb,
            );
            for f in strided(seg, seg + len, stride_eff) {
                visit(ks[f - seg]);
            }
        };
        match d {
            1 => per_row(0, &mut scratch, &mut ks),
            2 => {
                let s0 = self.strides[0];
                for i in n..dims[0] {
                    per_row(i * s0, &mut scratch, &mut ks);
                }
            }
            _ => {
                let (s0, s1) = (self.strides[0], self.strides[1]);
                for i in n..dims[0] {
                    for j in n..dims[1] {
                        per_row(i * s0 + j * s1, &mut scratch, &mut ks);
                    }
                }
            }
        }
        self.row_scratch = scratch;
        self.aux_scratch = ks;
    }

    /// Boundary slow path: full Eq. 11 with per-axis shrunk layer counts.
    #[inline]
    fn slow_pred<T: ScalarFloat>(&mut self, index: &[usize], buf: &[T], flat: usize) -> f64 {
        let stencil = self.stencils.for_index(index);
        predict_at(buf, flat, stencil)
    }

    fn scan_generic<T, F>(&mut self, shape: &Shape, buf: &mut [T], mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64) -> T,
    {
        let mut index = vec![0usize; shape.ndim()];
        for flat in 0..buf.len() {
            let stencil = self.stencils.for_index(&index);
            let pred = predict_at(buf, flat, stencil);
            buf[flat] = visit(flat, pred);
            shape.advance(&mut index);
        }
    }

    fn scan_2d_n2<T, F>(&mut self, shape: &Shape, buf: &mut [T], mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64) -> T,
    {
        let (d0, d1) = (shape.dims()[0], shape.dims()[1]);
        let s0 = self.strides[0];
        for i in 0..d0 {
            let row = i * s0;
            let fast_row = i >= 2;
            let border_cols = if fast_row { d1.min(2) } else { d1 };
            for j in 0..border_cols {
                let f = row + j;
                let pred = self.slow_pred(&[i, j], buf, f);
                buf[f] = visit(f, pred);
            }
            if fast_row {
                for j in 2..d1 {
                    let f = row + j;
                    let pred = two_layer_2d(buf, f, s0);
                    buf[f] = visit(f, pred);
                }
            }
        }
    }

    fn scan_3d_n2<T, F>(&mut self, shape: &Shape, buf: &mut [T], mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64) -> T,
    {
        let (d0, d1, d2) = (shape.dims()[0], shape.dims()[1], shape.dims()[2]);
        let (s0, s1) = (self.strides[0], self.strides[1]);
        // Copy the 26 interior terms to the stack: reading them through
        // `&self` inside the hot loop would alias-block hoisting against the
        // `buf` writes.
        let mut terms = [(0usize, 0.0f64); 26];
        terms.copy_from_slice(&self.interior_terms);
        for i in 0..d0 {
            for j in 0..d1 {
                let base = i * s0 + j * s1;
                let fast_pencil = i >= 2 && j >= 2;
                let border_depth = if fast_pencil { d2.min(2) } else { d2 };
                for k in 0..border_depth {
                    let f = base + k;
                    let pred = self.slow_pred(&[i, j, k], buf, f);
                    buf[f] = visit(f, pred);
                }
                if fast_pencil {
                    for k in 2..d2 {
                        let f = base + k;
                        let mut pred = 0.0f64;
                        for &(off, coeff) in &terms {
                            pred += coeff * buf[f - off].to_f64();
                        }
                        buf[f] = visit(f, pred);
                    }
                }
            }
        }
    }

    fn readonly_generic<T, F>(&mut self, shape: &Shape, data: &[T], mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let mut index = vec![0usize; shape.ndim()];
        for flat in 0..data.len() {
            let stencil = self.stencils.for_index(&index);
            visit(flat, predict_at(data, flat, stencil));
            shape.advance(&mut index);
        }
    }

    fn readonly_2d_n2<T, F>(&mut self, shape: &Shape, data: &[T], mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let (d0, d1) = (shape.dims()[0], shape.dims()[1]);
        let s0 = self.strides[0];
        for i in 0..d0 {
            let row = i * s0;
            let fast_row = i >= 2;
            let border_cols = if fast_row { d1.min(2) } else { d1 };
            for j in 0..border_cols {
                let f = row + j;
                let pred = self.slow_pred(&[i, j], data, f);
                visit(f, pred);
            }
            if fast_row {
                for j in 2..d1 {
                    let f = row + j;
                    visit(f, two_layer_2d(data, f, s0));
                }
            }
        }
    }

    fn readonly_3d_n2<T, F>(&mut self, shape: &Shape, data: &[T], mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let (d0, d1, d2) = (shape.dims()[0], shape.dims()[1], shape.dims()[2]);
        let (s0, s1) = (self.strides[0], self.strides[1]);
        let mut terms = [(0usize, 0.0f64); 26];
        terms.copy_from_slice(&self.interior_terms);
        for i in 0..d0 {
            for j in 0..d1 {
                let base = i * s0 + j * s1;
                let fast_pencil = i >= 2 && j >= 2;
                let border_depth = if fast_pencil { d2.min(2) } else { d2 };
                for k in 0..border_depth {
                    let f = base + k;
                    let pred = self.slow_pred(&[i, j, k], data, f);
                    visit(f, pred);
                }
                if fast_pencil {
                    for k in 2..d2 {
                        let f = base + k;
                        let mut pred = 0.0f64;
                        for (off, coeff) in terms {
                            pred += coeff * data[f - off].to_f64();
                        }
                        visit(f, pred);
                    }
                }
            }
        }
    }

    fn sample_generic<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        let mut index = vec![0usize; shape.ndim()];
        for flat in 0..data.len() {
            if flat.is_multiple_of(stride) && index.iter().all(|&x| x >= n) {
                let stencil = self.stencils.for_index(&index);
                visit(flat, predict_at(data, flat, stencil));
            }
            shape.advance(&mut index);
        }
    }

    fn sample_1d<T, F>(&mut self, d0: usize, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        for f in strided(n, d0, stride) {
            let pred = if n == 1 {
                lorenzo_1d(data, f)
            } else {
                two_layer_1d(data, f)
            };
            visit(f, pred);
        }
    }

    fn sample_2d<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        let (d0, d1) = (shape.dims()[0], shape.dims()[1]);
        let s0 = self.strides[0];
        for i in n..d0 {
            let row = i * s0;
            for f in strided(row + n, row + d1, stride) {
                let pred = if n == 1 {
                    lorenzo_2d(data, f, s0)
                } else {
                    two_layer_2d(data, f, s0)
                };
                visit(f, pred);
            }
        }
    }

    fn sample_3d<T, F>(&mut self, shape: &Shape, data: &[T], stride: usize, mut visit: F)
    where
        T: ScalarFloat,
        F: FnMut(usize, f64),
    {
        let n = self.layers;
        let (d0, d1, d2) = (shape.dims()[0], shape.dims()[1], shape.dims()[2]);
        let (s0, s1) = (self.strides[0], self.strides[1]);
        let terms = &self.interior_terms[..];
        for i in n..d0 {
            for j in n..d1 {
                let base = i * s0 + j * s1;
                for f in strided(base + n, base + d2, stride) {
                    let pred = if n == 1 {
                        lorenzo_3d(data, f, s0, s1)
                    } else {
                        let mut acc = 0.0f64;
                        for &(off, coeff) in terms {
                            acc += coeff * data[f - off].to_f64();
                        }
                        acc
                    };
                    visit(f, pred);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The row-engine helpers.
// ---------------------------------------------------------------------------

/// Index into `row_plans` for the row with the given leading coordinates:
/// clamped per-axis layer digits in base `layers + 1`.
#[inline]
fn plan_index(layers: usize, lead: &[usize]) -> usize {
    let mut idx = 0usize;
    for &c in lead {
        idx = idx * (layers + 1) + c.min(layers);
    }
    idx
}

/// The multiples of `stride` in `lo..hi`, ascending: the sampled flat
/// indices of one row, stepped to directly instead of testing every point.
#[inline]
fn strided(lo: usize, hi: usize, stride: usize) -> std::iter::StepBy<std::ops::Range<usize>> {
    (lo.next_multiple_of(stride)..hi).step_by(stride)
}

/// One wavefront group of [`ScanKernel::scan_rows`]: `rows` consecutive
/// rows of one row class, `len` points each, starting at flat `start`.
/// Row `q`'s leading coordinates are `index[..axis]` with `q` added to the
/// last of them; `prior` is the class's finished-row terms.
struct Group<'a> {
    prior: &'a [(usize, f64)],
    index: [usize; 3],
    axis: usize,
    rows: usize,
    start: usize,
    len: usize,
    layers: usize,
}

impl Group<'_> {
    /// The finished-row part of the stencil at interior point `f`:
    /// `Σ_t coeff_t · buf[f − off_t]`, summed left to right in canonical
    /// term order (an empty prior is `0.0`).
    #[inline(always)]
    fn partial<T: ScalarFloat>(&self, buf: &[T], f: usize) -> f64 {
        match self.prior.split_first() {
            None => 0.0,
            Some((&(o0, c0), rest)) => {
                let mut acc = c0 * buf[f - o0].to_f64();
                for &(off, coeff) in rest {
                    acc += coeff * buf[f - off].to_f64();
                }
                acc
            }
        }
    }

    /// Visits the group in wavefront order: in step `t`, row `q` takes
    /// column `t − q`. Row `q`'s stencil reads rows `q − 1` and `q − 2` of
    /// the group only at columns `≤ j`, which those rows finished in earlier
    /// steps, so each step's points are independent of one another and the
    /// CPU overlaps their predict→quantize→reconstruct chains.
    ///
    /// The steps where a full group sits entirely on interior columns run
    /// through [`Group::steady`]; the ramps at both ends (and a short
    /// group's every step) take [`Group::step`].
    #[inline(always)]
    fn wave<T, V>(&self, stencils: &mut StencilSet, buf: &mut [T], visitor: &mut V)
    where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        // Per row, the widened reconstructions at columns j − 1 and j − 2.
        let mut carry = [[0.0f64; 2]; GROUP_ROWS];
        let steps = self.len + self.rows - 1;
        let steady = if self.rows == GROUP_ROWS {
            (self.rows - 1 + self.layers).min(self.len)..self.len
        } else {
            steps..steps
        };
        for t in 0..steady.start {
            self.step(t, &mut carry, stencils, buf, visitor);
        }
        if !steady.is_empty() {
            if self.layers == 1 {
                self.steady::<1, _, _>(steady.clone(), &mut carry, buf, visitor);
            } else {
                self.steady::<2, _, _>(steady.clone(), &mut carry, buf, visitor);
            }
        }
        for t in steady.end.max(steady.start)..steps {
            self.step(t, &mut carry, stencils, buf, visitor);
        }
    }

    /// One wavefront step of any group: the rows whose column `t − q` lies
    /// in the grid, border columns included.
    #[inline(always)]
    fn step<T, V>(
        &self,
        t: usize,
        carry: &mut [[f64; 2]; GROUP_ROWS],
        stencils: &mut StencilSet,
        buf: &mut [T],
        visitor: &mut V,
    ) where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        let mut index = self.index;
        let first = if t < self.len { 0 } else { t - self.len + 1 };
        let rows = carry.iter_mut().enumerate().take(self.rows.min(t + 1));
        for (q, row) in rows.skip(first) {
            let j = t - q;
            let f = self.start + q * self.len + j;
            let [p1, p2] = *row;
            let pred = if j < self.layers {
                // Border column: the per-point shrunk stencil.
                if self.axis > 0 {
                    index[self.axis - 1] = self.index[self.axis - 1] + q;
                }
                index[self.axis] = j;
                predict_at(buf, f, stencils.for_index(&index[..=self.axis]))
            } else {
                let partial = self.partial(buf, f);
                if self.layers == 1 {
                    partial + p1
                } else {
                    (partial + 2.0 * p1) - p2
                }
            };
            let r = visitor.point(f, pred);
            buf[f] = r;
            *row = [r.to_f64(), p1];
        }
    }

    /// The wavefront steps `steps` of a full group where every row sits on
    /// an interior column: no border test, no row-range arithmetic, and
    /// the carries held in a local copy the compiler can keep in registers.
    #[inline(always)]
    fn steady<const N: usize, T, V>(
        &self,
        steps: std::ops::Range<usize>,
        carry: &mut [[f64; 2]; GROUP_ROWS],
        buf: &mut [T],
        visitor: &mut V,
    ) where
        T: ScalarFloat,
        V: RowVisitor<T>,
    {
        let mut c = *carry;
        for t in steps {
            // Row q's point sits `len − 1` after row q − 1's.
            let mut f = self.start + t;
            for row in c.iter_mut() {
                let [p1, p2] = *row;
                let partial = self.partial(buf, f);
                let pred = if N == 1 {
                    partial + p1
                } else {
                    (partial + 2.0 * p1) - p2
                };
                let r = visitor.point(f, pred);
                buf[f] = r;
                *row = [r.to_f64(), p1];
                f += self.len - 1;
            }
        }
        *carry = c;
    }
}

/// Accumulates `terms` into `out` for the row segment starting at
/// `seg_start`: `out[i] = Σ_t coeff_t · buf[seg_start + i − off_t]`, summed
/// in canonical term order — the read-only row pass and the dense
/// sampler's predictions. Term-major, one tight slice pass per term, each
/// a plain multiply-then-add loop the compiler vectorizes (no FMA
/// contraction, so every lane rounds as the per-point predictors do).
fn fill_partials<T: ScalarFloat>(
    terms: &[(usize, f64)],
    buf: &[T],
    seg_start: usize,
    out: &mut [f64],
) {
    let n = out.len();
    let src = |off: usize| &buf[seg_start - off..seg_start - off + n];
    match terms.split_first() {
        None => out.fill(0.0),
        Some((&(o0, c0), rest)) => {
            for (d, &v) in out.iter_mut().zip(src(o0)) {
                *d = c0 * v.to_f64();
            }
            for &(off, coeff) in rest {
                for (d, &v) in out.iter_mut().zip(src(off)) {
                    *d += coeff * v.to_f64();
                }
            }
        }
    }
}

/// The sampler's hit-test magnitudes over one prediction row:
/// `ks[i] = |round((vals[i] − preds[i]) / two_eb)|`, bit-identical to the
/// per-point formula (see [`round_abs`]).
fn k_pass<T: ScalarFloat>(ks: &mut [f64], vals: &[T], preds: &[f64], two_eb: f64) {
    for ((k, &v), &p) in ks.iter_mut().zip(vals).zip(preds) {
        *k = round_abs((v.to_f64() - p) / two_eb);
    }
}

/// `|round(y)|`, ties away from zero, equal to `y.round().abs()` for every
/// input (NaN stays NaN, ∞ stays ∞) but built from adds, compares and
/// selects: `f64::round` is a libm call on targets without SSE4.1, which
/// would cost a call per sampled point and keep [`k_pass`] from
/// vectorizing.
#[inline(always)]
fn round_abs(y: f64) -> f64 {
    /// 2^52: from here on every double is an integer.
    const INTEGRAL: f64 = 4_503_599_627_370_496.0;
    let a = y.abs();
    // For a < 2^52, a + 2^52 lands where the spacing is 1, so the add
    // rounds a to the nearest integer (ties to even) and the subtract is
    // exact.
    let even = (a + INTEGRAL) - INTEGRAL;
    // a − even is exact; a tie that went down to the even neighbour goes
    // up instead.
    let rounded = if a - even == 0.5 { even + 1.0 } else { even };
    // Large, infinite and NaN inputs are their own rounding.
    if a < INTEGRAL {
        rounded
    } else {
        a
    }
}

// ---------------------------------------------------------------------------
// Closed-form interior predictors. Term order matches `Stencil::build`'s
// canonical enumeration — finished-row terms first (lexicographic), in-row
// terms last — so results are identical (up to the sign of zero) to
// `predict_at` over the equivalent stencil AND to the row engine's
// partial-sum + carry split. That shared order is the invariant that keeps
// specialized, generic, row, and point archives byte-identical.
// ---------------------------------------------------------------------------

/// 1-D Lorenzo: previous neighbor.
#[inline(always)]
fn lorenzo_1d<T: ScalarFloat>(b: &[T], f: usize) -> f64 {
    b[f - 1].to_f64()
}

/// 2-D Lorenzo over axes with strides `(s, 1)`: finished-row pair, then the
/// loop-carried previous neighbor.
#[inline(always)]
fn lorenzo_2d<T: ScalarFloat>(b: &[T], f: usize, s: usize) -> f64 {
    (b[f - s].to_f64() - b[f - s - 1].to_f64()) + b[f - 1].to_f64()
}

/// 3-D Lorenzo (7 terms, inclusion–exclusion over the unit cube).
#[inline(always)]
fn lorenzo_3d<T: ScalarFloat>(b: &[T], f: usize, s0: usize, s1: usize) -> f64 {
    b[f - s1].to_f64() - b[f - s1 - 1].to_f64() + b[f - s0].to_f64()
        - b[f - s0 - 1].to_f64()
        - b[f - s0 - s1].to_f64()
        + b[f - s0 - s1 - 1].to_f64()
        + b[f - 1].to_f64()
}

/// 1-D two-layer: linear extrapolation (Table I row n = 2, d = 1).
#[inline(always)]
fn two_layer_1d<T: ScalarFloat>(b: &[T], f: usize) -> f64 {
    2.0 * b[f - 1].to_f64() - b[f - 2].to_f64()
}

/// 2-D two-layer: the 8-point Table I stencil, coefficients unrolled;
/// finished-row terms first, the two loop-carried neighbors last.
#[inline(always)]
fn two_layer_2d<T: ScalarFloat>(b: &[T], f: usize, s: usize) -> f64 {
    2.0 * b[f - s].to_f64() - 4.0 * b[f - s - 1].to_f64() + 2.0 * b[f - s - 2].to_f64()
        - b[f - 2 * s].to_f64()
        + 2.0 * b[f - 2 * s - 1].to_f64()
        - b[f - 2 * s - 2].to_f64()
        + 2.0 * b[f - 1].to_f64()
        - b[f - 2].to_f64()
}

// ---------------------------------------------------------------------------
// Specialized traversals (free functions where no stencil fallback is
// needed: every 1-layer boundary class is itself closed-form).
// ---------------------------------------------------------------------------

fn scan_1d_n1<T, F>(d0: usize, buf: &mut [T], mut visit: F)
where
    T: ScalarFloat,
    F: FnMut(usize, f64) -> T,
{
    buf[0] = visit(0, 0.0);
    for f in 1..d0 {
        let pred = lorenzo_1d(buf, f);
        buf[f] = visit(f, pred);
    }
}

fn scan_1d_n2<T, F>(d0: usize, buf: &mut [T], mut visit: F)
where
    T: ScalarFloat,
    F: FnMut(usize, f64) -> T,
{
    buf[0] = visit(0, 0.0);
    if d0 > 1 {
        // One usable neighbor: the layer count shrinks to 1 at x = 1.
        let pred = lorenzo_1d(buf, 1);
        buf[1] = visit(1, pred);
    }
    for f in 2..d0 {
        let pred = two_layer_1d(buf, f);
        buf[f] = visit(f, pred);
    }
}

fn scan_2d_n1<T, F>(d0: usize, d1: usize, s0: usize, buf: &mut [T], mut visit: F)
where
    T: ScalarFloat,
    F: FnMut(usize, f64) -> T,
{
    buf[0] = visit(0, 0.0);
    for f in 1..d1 {
        let pred = lorenzo_1d(buf, f);
        buf[f] = visit(f, pred);
    }
    for i in 1..d0 {
        let row = i * s0;
        let pred = buf[row - s0].to_f64();
        buf[row] = visit(row, pred);
        for j in 1..d1 {
            let f = row + j;
            let pred = lorenzo_2d(buf, f, s0);
            buf[f] = visit(f, pred);
        }
    }
}

fn scan_3d_n1<T, F>(
    d0: usize,
    d1: usize,
    d2: usize,
    s0: usize,
    s1: usize,
    buf: &mut [T],
    mut visit: F,
) where
    T: ScalarFloat,
    F: FnMut(usize, f64) -> T,
{
    for i in 0..d0 {
        for j in 0..d1 {
            let base = i * s0 + j * s1;
            // Pencil start (k = 0): the predictor degrades to the plane of
            // axes that still have a preceding neighbor.
            let pred = match (i > 0, j > 0) {
                (false, false) => 0.0,
                (false, true) => buf[base - s1].to_f64(),
                (true, false) => buf[base - s0].to_f64(),
                (true, true) => {
                    buf[base - s1].to_f64() + buf[base - s0].to_f64() - buf[base - s0 - s1].to_f64()
                }
            };
            buf[base] = visit(base, pred);
            match (i > 0, j > 0) {
                (false, false) => {
                    for k in 1..d2 {
                        let f = base + k;
                        let pred = lorenzo_1d(buf, f);
                        buf[f] = visit(f, pred);
                    }
                }
                (false, true) => {
                    for k in 1..d2 {
                        let f = base + k;
                        let pred = lorenzo_2d(buf, f, s1);
                        buf[f] = visit(f, pred);
                    }
                }
                (true, false) => {
                    for k in 1..d2 {
                        let f = base + k;
                        let pred = lorenzo_2d(buf, f, s0);
                        buf[f] = visit(f, pred);
                    }
                }
                (true, true) => {
                    for k in 1..d2 {
                        let f = base + k;
                        let pred = lorenzo_3d(buf, f, s0, s1);
                        buf[f] = visit(f, pred);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Read-only traversals: the same visit order and predictions as the scan_*
// functions above, but predicting from the caller's immutable data instead
// of a write-back buffer (original-value prediction).
// ---------------------------------------------------------------------------

fn readonly_1d_n1<T, F>(d0: usize, data: &[T], mut visit: F)
where
    T: ScalarFloat,
    F: FnMut(usize, f64),
{
    visit(0, 0.0);
    for f in 1..d0 {
        visit(f, lorenzo_1d(data, f));
    }
}

fn readonly_1d_n2<T, F>(d0: usize, data: &[T], mut visit: F)
where
    T: ScalarFloat,
    F: FnMut(usize, f64),
{
    visit(0, 0.0);
    if d0 > 1 {
        visit(1, lorenzo_1d(data, 1));
    }
    for f in 2..d0 {
        visit(f, two_layer_1d(data, f));
    }
}

fn readonly_2d_n1<T, F>(d0: usize, d1: usize, s0: usize, data: &[T], mut visit: F)
where
    T: ScalarFloat,
    F: FnMut(usize, f64),
{
    visit(0, 0.0);
    for f in 1..d1 {
        visit(f, lorenzo_1d(data, f));
    }
    for i in 1..d0 {
        let row = i * s0;
        visit(row, data[row - s0].to_f64());
        for j in 1..d1 {
            let f = row + j;
            visit(f, lorenzo_2d(data, f, s0));
        }
    }
}

fn readonly_3d_n1<T, F>(
    d0: usize,
    d1: usize,
    d2: usize,
    s0: usize,
    s1: usize,
    data: &[T],
    mut visit: F,
) where
    T: ScalarFloat,
    F: FnMut(usize, f64),
{
    for i in 0..d0 {
        for j in 0..d1 {
            let base = i * s0 + j * s1;
            let pred = match (i > 0, j > 0) {
                (false, false) => 0.0,
                (false, true) => data[base - s1].to_f64(),
                (true, false) => data[base - s0].to_f64(),
                (true, true) => {
                    data[base - s1].to_f64() + data[base - s0].to_f64()
                        - data[base - s0 - s1].to_f64()
                }
            };
            visit(base, pred);
            match (i > 0, j > 0) {
                (false, false) => {
                    for k in 1..d2 {
                        let f = base + k;
                        visit(f, lorenzo_1d(data, f));
                    }
                }
                (false, true) => {
                    for k in 1..d2 {
                        let f = base + k;
                        visit(f, lorenzo_2d(data, f, s1));
                    }
                }
                (true, false) => {
                    for k in 1..d2 {
                        let f = base + k;
                        visit(f, lorenzo_2d(data, f, s0));
                    }
                }
                (true, true) => {
                    for k in 1..d2 {
                        let f = base + k;
                        visit(f, lorenzo_3d(data, f, s0, s1));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_slice_with_stats, compress_validated};
    use crate::{decompress, Config, ErrorBound};
    use szr_tensor::Tensor;

    fn wavy(dims: &[usize]) -> Vec<f32> {
        let len: usize = dims.iter().product();
        (0..len)
            .map(|f| ((f as f32) * 0.37).sin() * 8.0 + ((f as f32) * 0.011).cos() * 3.0)
            .collect()
    }

    /// The add/compare/select rounding agrees with `round().abs()` on
    /// ties, their neighbours, both sides of 2^52, and the specials.
    #[test]
    fn round_abs_matches_libm_round() {
        let mut ys = vec![0.0, -0.0, 1e-300, f64::NAN, f64::INFINITY, 1e300];
        for n in [
            0.0,
            1.0,
            2.0,
            3.0,
            1e6,
            2f64.powi(51),
            2f64.powi(52),
            2f64.powi(53),
        ] {
            for y in [n - 0.5, n + 0.5, n, n + 0.25, n - 0.25, n + 0.75] {
                ys.extend([y, y.next_up(), y.next_down()]);
            }
        }
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            ys.push(f64::from_bits(h));
        }
        for y in ys {
            for y in [y, -y] {
                let (got, want) = (round_abs(y), y.round().abs());
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "round_abs({y:e}) = {got:e}, want {want:e}"
                );
            }
        }
    }

    /// The batched row passes equal their per-point formulas lane for lane
    /// over lengths around every vector width.
    #[test]
    fn row_passes_match_the_point_formulas() {
        fn check<T: ScalarFloat>(buf: &[T], n: usize) {
            let terms = [(1usize, 0.75), (2, -1.5), (3, 2.25)];
            let mut out = vec![0.125; n];
            fill_partials(&terms, buf, 3, &mut out);
            for (i, &got) in out.iter().enumerate() {
                let f = 3 + i;
                let want = 0.75 * buf[f - 1].to_f64()
                    + -1.5 * buf[f - 2].to_f64()
                    + 2.25 * buf[f - 3].to_f64();
                assert_eq!(got.to_bits(), want.to_bits(), "fill_partials n={n} i={i}");
            }
            let vals = &buf[..n];
            let mut ks = vec![0.0; n];
            k_pass(&mut ks, vals, &out, 2e-3);
            for i in 0..n {
                let want = ((vals[i].to_f64() - out[i]) / 2e-3).round().abs();
                assert_eq!(ks[i].to_bits(), want.to_bits(), "k_pass n={n} i={i}");
            }
        }
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33] {
            let buf: Vec<f32> = wavy(&[n + 3]);
            check(&buf, n);
            // f64 values off the f32 grid, so the f64 loops see full mantissas.
            let buf64: Vec<f64> = buf.iter().map(|&v| v as f64 * (1.0 + 1e-12)).collect();
            check(&buf64, n);
        }
    }

    #[test]
    fn kind_selection_covers_the_dominant_cases() {
        for (strides, layers, specialized) in [
            (vec![1usize], 1usize, true),
            (vec![1], 2, true),
            (vec![64, 1], 1, true),
            (vec![64, 1], 2, true),
            (vec![12, 4, 1], 1, true),
            (vec![12, 4, 1], 2, true),
            (vec![12, 4, 1], 3, false),
            (vec![100, 20, 5, 1], 1, false),
        ] {
            let kernel = ScanKernel::new(layers, &strides);
            assert_eq!(
                kernel.kind() != KernelKind::Generic,
                specialized,
                "strides {strides:?} layers {layers}"
            );
        }
    }

    #[test]
    fn scan_visits_every_point_in_flat_order() {
        for dims in [
            vec![17usize],
            vec![5, 7],
            vec![1, 9],
            vec![3, 4, 5],
            vec![2, 2, 9],
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);
                let mut buf = vec![0.0f32; shape.len()];
                let mut seen = Vec::new();
                kernel.scan(&shape, &mut buf, |flat, _| {
                    seen.push(flat);
                    1.0
                });
                let expect: Vec<usize> = (0..shape.len()).collect();
                assert_eq!(seen, expect, "dims {dims:?} layers {layers}");
            }
        }
    }

    /// Specialized and generic kernels must agree on every prediction (up
    /// to zero-sign) and on every stored value — the invariant the archive
    /// equivalence rests on.
    #[test]
    fn specialized_predictions_match_generic() {
        for dims in [
            vec![40usize],
            vec![1, 23],
            vec![23, 1],
            vec![9, 11],
            vec![2, 2, 17],
            vec![1, 1, 13],
            vec![6, 5, 4],
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let data = wavy(&dims);
                let mut spec = ScanKernel::for_shape(layers, &shape);
                assert_ne!(spec.kind(), KernelKind::Generic);
                let mut generic = ScanKernel::generic(layers, shape.strides());

                let run = |kernel: &mut ScanKernel| {
                    let mut buf = vec![0.0f32; shape.len()];
                    let mut preds = Vec::with_capacity(shape.len());
                    kernel.scan(&shape, &mut buf, |flat, pred| {
                        preds.push(pred);
                        // Store a quantized-ish reconstruction so later
                        // predictions depend on earlier ones.
                        (pred + (data[flat] as f64 - pred) * 0.5) as f32
                    });
                    (preds, buf)
                };
                let (pa, ba) = run(&mut spec);
                let (pb, bb) = run(&mut generic);
                assert_eq!(pa.len(), pb.len());
                for (idx, (x, y)) in pa.iter().zip(&pb).enumerate() {
                    assert!(
                        x == y,
                        "dims {dims:?} layers {layers} flat {idx}: {x} vs {y}"
                    );
                }
                assert_eq!(ba, bb, "dims {dims:?} layers {layers}");
            }
        }
    }

    /// `scan_readonly` must produce exactly the predictions of a write-back
    /// scan whose buffer is seeded with the originals and whose visitor
    /// stores each original back unchanged — the copy-based implementation
    /// `hit_rate_by_layer(Original)` used before the read-only path existed.
    #[test]
    fn readonly_scan_matches_copy_based_scan() {
        for dims in [
            vec![40usize],
            vec![1, 23],
            vec![23, 1],
            vec![9, 11],
            vec![2, 2, 17],
            vec![1, 1, 13],
            vec![6, 5, 4],
            vec![3, 4, 5, 2], // generic fallback
        ] {
            for layers in 1..=3usize {
                let shape = Shape::new(&dims);
                let data = wavy(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);

                let mut copied: Vec<(usize, f64)> = Vec::new();
                let mut buf = data.clone();
                kernel.scan(&shape, &mut buf, |flat, pred| {
                    copied.push((flat, pred));
                    data[flat]
                });

                let mut readonly: Vec<(usize, f64)> = Vec::new();
                kernel.scan_readonly(&shape, &data, |flat, pred| readonly.push((flat, pred)));

                assert_eq!(readonly, copied, "dims {dims:?} layers {layers}");
            }
        }
    }

    /// `scan_rows` must cut the grid into contiguous groups in flat order,
    /// visit every point exactly once inside its own group, and reach each
    /// point only after its left and upper neighbors — the wavefront's
    /// dependency contract.
    #[test]
    fn scan_rows_covers_the_grid_in_order() {
        struct Recorder {
            row_len: usize,
            seen: Vec<bool>,
            group: std::ops::Range<usize>,
            next_start: usize,
        }
        impl<T: ScalarFloat> RowVisitor<T> for Recorder {
            type Error = std::convert::Infallible;
            fn begin_group(&mut self, start: usize, len: usize) -> Result<(), Self::Error> {
                assert_eq!(start, self.next_start, "groups out of flat order");
                assert!(len > 0 && len.is_multiple_of(self.row_len), "partial rows");
                self.group = start..start + len;
                Ok(())
            }
            fn point(&mut self, flat: usize, _pred: f64) -> T {
                assert!(self.group.contains(&flat), "{flat} outside its group");
                assert!(!self.seen[flat], "{flat} visited twice");
                if !flat.is_multiple_of(self.row_len) {
                    assert!(self.seen[flat - 1], "{flat} before its left neighbor");
                }
                if flat >= self.row_len {
                    assert!(
                        self.seen[flat - self.row_len],
                        "{flat} before the row above"
                    );
                }
                self.seen[flat] = true;
                T::from_f64(1.0)
            }
            fn end_group(&mut self, start: usize, len: usize) -> Result<(), Self::Error> {
                assert_eq!(start..start + len, self.group);
                assert!(self.seen[self.group.clone()].iter().all(|&s| s));
                self.next_start = start + len;
                Ok(())
            }
        }
        for dims in [
            vec![17usize],
            vec![1, 1],
            vec![5, 7],
            vec![1, 9],
            vec![9, 1],
            vec![11, 3],
            vec![3, 4, 5],
            vec![2, 2, 9],
            vec![1, 1, 2],
            vec![2, 7, 3],
            vec![4, 3, 2, 2], // generic fallback
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);
                let mut buf = vec![0.0f32; shape.len()];
                let mut rec = Recorder {
                    row_len: dims[dims.len() - 1],
                    seen: vec![false; shape.len()],
                    group: 0..0,
                    next_start: 0,
                };
                match kernel.scan_rows(&shape, &mut buf, &mut rec) {
                    Ok(()) => {}
                    Err(e) => match e {},
                }
                assert_eq!(rec.next_start, shape.len(), "dims {dims:?} layers {layers}");
            }
        }
    }

    /// Wavefront predictions and stored values must match the point-visitor
    /// oracle bit for bit — the invariant row-path archives rest on.
    #[test]
    fn scan_rows_matches_point_oracle() {
        struct Mimic<'a> {
            data: &'a [f32],
            preds: Vec<f64>,
        }
        impl RowVisitor<f32> for Mimic<'_> {
            type Error = std::convert::Infallible;
            fn point(&mut self, flat: usize, pred: f64) -> f32 {
                self.preds[flat] = pred;
                (pred + (self.data[flat] as f64 - pred) * 0.5) as f32
            }
        }
        for dims in [
            vec![40usize],
            vec![1, 23],
            vec![23, 1],
            vec![9, 11],
            vec![2, 2, 17],
            vec![1, 1, 13],
            vec![6, 5, 4],
            vec![3, 4, 5, 2], // generic fallback: row-major groups of one row
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let data = wavy(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);

                let mut point_buf = vec![0.0f32; shape.len()];
                let mut point_preds = Vec::new();
                kernel.scan(&shape, &mut point_buf, |flat, pred| {
                    point_preds.push(pred);
                    (pred + (data[flat] as f64 - pred) * 0.5) as f32
                });

                let mut row_buf = vec![0.0f32; shape.len()];
                let mut mimic = Mimic {
                    data: &data,
                    preds: vec![f64::NAN; shape.len()],
                };
                match kernel.scan_rows(&shape, &mut row_buf, &mut mimic) {
                    Ok(()) => {}
                    Err(e) => match e {},
                }

                for (f, (a, b)) in point_preds.iter().zip(&mimic.preds).enumerate() {
                    assert!(a == b, "dims {dims:?} layers {layers} flat {f}: {a} vs {b}");
                }
                assert_eq!(point_buf, row_buf, "dims {dims:?} layers {layers}");
            }
        }
    }

    /// `readonly_rows` materializes exactly the predictions `scan_readonly`
    /// delivers point by point.
    #[test]
    fn readonly_rows_matches_point_readonly() {
        for dims in [
            vec![40usize],
            vec![1, 23],
            vec![9, 11],
            vec![2, 2, 17],
            vec![6, 5, 4],
            vec![3, 4, 5, 2], // generic fallback
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let data = wavy(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);

                let mut point: Vec<(usize, f64)> = Vec::new();
                kernel.scan_readonly(&shape, &data, |flat, pred| point.push((flat, pred)));

                let mut rows: Vec<(usize, f64)> = Vec::new();
                let mut border: Vec<(usize, f64)> = Vec::new();
                kernel.readonly_rows(
                    &shape,
                    &data,
                    |flat, pred| border.push((flat, pred)),
                    |flat, preds| {
                        rows.extend(preds.iter().enumerate().map(|(i, &p)| (flat + i, p)))
                    },
                );
                let mut merged = border;
                merged.append(&mut rows);
                merged.sort_by_key(|&(f, _)| f);

                assert_eq!(merged.len(), point.len());
                for ((fa, pa), (fb, pb)) in point.iter().zip(&merged) {
                    assert_eq!(fa, fb);
                    assert!(
                        pa == pb,
                        "dims {dims:?} layers {layers} flat {fa}: {pa} vs {pb}"
                    );
                }
            }
        }
    }

    /// A failing visitor aborts the scan at the first error instead of
    /// walking the rest of the grid — the `try_scan` early-exit contract
    /// corrupt-archive decoding relies on. Errors surface at group
    /// boundaries: failing in `begin_group` visits nothing of that group,
    /// failing in `end_group` nothing after it.
    #[test]
    fn scan_rows_aborts_on_first_error() {
        struct FailAt {
            fail_flat: usize,
            at_end: bool,
            visited: usize,
            failed_group: Option<(usize, usize)>,
        }
        impl FailAt {
            fn check(&mut self, start: usize, len: usize) -> Result<(), ()> {
                if (start..start + len).contains(&self.fail_flat) {
                    self.failed_group = Some((start, len));
                    return Err(());
                }
                Ok(())
            }
        }
        impl RowVisitor<f32> for FailAt {
            type Error = ();
            fn begin_group(&mut self, start: usize, len: usize) -> Result<(), ()> {
                if self.at_end {
                    Ok(())
                } else {
                    self.check(start, len)
                }
            }
            fn point(&mut self, _flat: usize, _pred: f64) -> f32 {
                self.visited += 1;
                0.0
            }
            fn end_group(&mut self, start: usize, len: usize) -> Result<(), ()> {
                if self.at_end {
                    self.check(start, len)
                } else {
                    Ok(())
                }
            }
        }
        for dims in [vec![64usize], vec![12, 12], vec![4, 5, 6]] {
            for at_end in [false, true] {
                let shape = Shape::new(&dims);
                let fail_flat = shape.len() / 2;
                let mut kernel = ScanKernel::for_shape(1, &shape);
                let mut buf = vec![0.0f32; shape.len()];
                let mut visitor = FailAt {
                    fail_flat,
                    at_end,
                    visited: 0,
                    failed_group: None,
                };
                assert!(kernel.scan_rows(&shape, &mut buf, &mut visitor).is_err());
                let (start, len) = visitor.failed_group.expect("no group failed");
                let expect = if at_end { start + len } else { start };
                assert_eq!(visitor.visited, expect, "dims {dims:?} at_end {at_end}");
            }
        }
    }

    #[test]
    fn sample_interior_agrees_with_generic_walker() {
        for dims in [
            vec![50usize],
            vec![8, 9],
            vec![1, 16],
            vec![4, 5, 6],
            vec![2, 2, 11],
        ] {
            for layers in 1..=2usize {
                for stride in [1usize, 3, 5] {
                    let shape = Shape::new(&dims);
                    let data = wavy(&dims);
                    let mut spec = ScanKernel::for_shape(layers, &shape);
                    let mut generic = ScanKernel::generic(layers, shape.strides());
                    let mut a: Vec<(usize, f64)> = Vec::new();
                    let mut b: Vec<(usize, f64)> = Vec::new();
                    spec.sample_interior(&shape, &data, stride, |f, p| a.push((f, p)));
                    generic.sample_interior(&shape, &data, stride, |f, p| b.push((f, p)));
                    assert_eq!(a, b, "dims {dims:?} layers {layers} stride {stride}");
                }
            }
        }
    }

    /// The sampler steps from each row's first multiple of the stride
    /// instead of testing every point: it must visit exactly the points,
    /// and yield exactly the interval magnitudes, of a brute-force walk
    /// over every flat index with a modulo test — on odd shapes, every
    /// stride from dense to sparse, both layer counts.
    #[test]
    fn stepped_sampler_matches_modulo_reference() {
        for dims in [
            vec![7usize, 13],
            vec![11, 5],
            vec![3, 29],
            vec![5, 7, 9],
            vec![3, 4, 11],
            vec![6, 2, 13],
        ] {
            for layers in 1..=2usize {
                let shape = Shape::new(&dims);
                let data = wavy(&dims);
                let mut kernel = ScanKernel::for_shape(layers, &shape);
                let mut set = StencilSet::new(layers, shape.strides());
                for stride in 1..=7usize {
                    let mut want = Vec::new();
                    let mut index = vec![0usize; dims.len()];
                    for flat in 0..shape.len() {
                        if flat % stride == 0 && index.iter().all(|&x| x >= layers) {
                            want.push((flat, predict_at(&data, flat, set.for_index(&index))));
                        }
                        shape.advance(&mut index);
                    }
                    let mut got = Vec::new();
                    kernel.sample_interior(&shape, &data, stride, |f, p| got.push((f, p)));
                    assert_eq!(got, want, "dims {dims:?} layers {layers} stride {stride}");

                    let two_eb = 0.037;
                    let mut ks = Vec::new();
                    kernel.sample_interior_ks(&shape, &data, stride, two_eb, |k| ks.push(k));
                    let want_ks: Vec<f64> = want
                        .iter()
                        .map(|&(f, p)| ((data[f] as f64 - p) / two_eb).round().abs())
                        .collect();
                    assert_eq!(ks, want_ks, "dims {dims:?} layers {layers} stride {stride}");
                }
            }
        }
    }

    /// One kernel instance serves grids that differ only in their leading
    /// extent — the chunked-band reuse contract.
    #[test]
    fn kernel_reuse_across_band_heights_matches_fresh_kernels() {
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let mut shared = ScanKernel::new(1, &[32, 1]);
        for rows in [1usize, 2, 7, 19] {
            let dims = vec![rows, 32];
            let shape = Shape::new(&dims);
            let data = wavy(&dims);
            let (reused, _) = compress_validated(&data, &shape, &config, &mut shared).unwrap();
            let (fresh, _) = compress_slice_with_stats(&data, &shape, &config).unwrap();
            assert_eq!(reused, fresh, "rows {rows}");
        }
    }

    #[test]
    fn mismatched_kernel_is_rejected() {
        let config = Config::new(ErrorBound::Absolute(1e-3));
        let shape = Shape::new(&[8, 8]);
        let data = wavy(&[8, 8]);
        // Wrong stride family.
        let mut kernel = ScanKernel::new(1, &[16, 1]);
        assert!(compress_validated(&data, &shape, &config, &mut kernel).is_err());
        // Wrong layer count.
        let mut kernel = ScanKernel::new(2, &[8, 1]);
        assert!(compress_validated(&data, &shape, &config, &mut kernel).is_err());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Shapes weighted toward the boundary-heavy degenerate cases the
        /// issue calls out (`[1, N]`, `[2, 2, N]`, unit axes).
        fn arb_dims() -> impl Strategy<Value = Vec<usize>> {
            prop_oneof![
                (1usize..=96).prop_map(|n| vec![n]),
                (1usize..=14, 1usize..=14).prop_map(|(a, b)| vec![a, b]),
                (1usize..=48).prop_map(|n| vec![1, n]),
                (1usize..=48).prop_map(|n| vec![n, 1]),
                (1usize..=6, 1usize..=6, 1usize..=6).prop_map(|(a, b, c)| vec![a, b, c]),
                (1usize..=24).prop_map(|n| vec![2, 2, n]),
                (1usize..=24).prop_map(|n| vec![1, 1, n]),
            ]
        }

        fn arb_grid_f32() -> impl Strategy<Value = (Vec<usize>, Vec<f32>)> {
            arb_dims().prop_flat_map(|dims| {
                let len: usize = dims.iter().product();
                (Just(dims), prop::collection::vec(-1e5f32..1e5, len..=len))
            })
        }

        fn arb_grid_f64() -> impl Strategy<Value = (Vec<usize>, Vec<f64>)> {
            arb_dims().prop_flat_map(|dims| {
                let len: usize = dims.iter().product();
                (Just(dims), prop::collection::vec(-1e9f64..1e9, len..=len))
            })
        }

        fn assert_equivalent<T: ScalarFloat + std::fmt::Debug + PartialEq>(
            dims: &[usize],
            data: &[T],
            config: &Config,
        ) -> Result<(), crate::SzError> {
            use crate::compress::HuffmanTable;
            use crate::oracle::quantize_slice_with_kernel_oracle;
            use crate::CodecSession;

            let shape = Shape::new(dims);
            let mut spec = ScanKernel::for_shape(config.layers, &shape);
            assert_ne!(spec.kind(), KernelKind::Generic);
            let mut generic = ScanKernel::generic(config.layers, shape.strides());
            let (a, sa) = compress_validated(data, &shape, config, &mut spec)?;
            let (b, sb) = compress_validated(data, &shape, config, &mut generic)?;
            assert_eq!(a, b, "archives diverge for dims {dims:?}");
            assert_eq!(sa, sb);
            // The row engine vs the retained point-visitor oracle: archive
            // bytes AND stats (hit counts, section sizes) must be identical.
            let band = quantize_slice_with_kernel_oracle(data, &shape, config, &mut spec)?;
            let mut session = CodecSession::<T>::new(*config)?;
            let (oracle, so) = session.encode(&band, HuffmanTable::PerBand);
            assert_eq!(a, oracle, "row path diverges from point oracle {dims:?}");
            assert_eq!(sa, so);
            let out: Tensor<T> = decompress(&a)?;
            assert_eq!(out.dims(), dims);
            for (x, y) in data.iter().zip(out.as_slice()) {
                let err = (x.to_f64() - y.to_f64()).abs();
                assert!(err <= sa.eb_abs, "bound violated: {err} > {}", sa.eb_abs);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// THE tentpole invariant: specialized kernels produce archives
            /// byte-identical to the generic stencil walker — f32, fixed
            /// interval counts.
            #[test]
            fn archives_identical_f32_fixed_bits(
                (dims, data) in arb_grid_f32(),
                layers in 1usize..=2,
                eb in 1e-4f64..1.0,
                bits in 2u32..=10,
            ) {
                let config = Config::new(ErrorBound::Absolute(eb))
                    .with_layers(layers)
                    .with_interval_bits(bits);
                assert_equivalent(&dims, &data, &config).unwrap();
            }

            /// Same with the adaptive interval sampler in the loop, which
            /// exercises `sample_interior` equivalence end-to-end.
            #[test]
            fn archives_identical_f32_adaptive_bits(
                (dims, data) in arb_grid_f32(),
                layers in 1usize..=2,
                eb in 1e-4f64..1.0,
            ) {
                let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
                assert_equivalent(&dims, &data, &config).unwrap();
            }

            /// And for f64 grids.
            #[test]
            fn archives_identical_f64(
                (dims, data) in arb_grid_f64(),
                layers in 1usize..=2,
                eb in 1e-6f64..1e2,
            ) {
                let config = Config::new(ErrorBound::Absolute(eb)).with_layers(layers);
                assert_equivalent(&dims, &data, &config).unwrap();
            }

            /// Decorrelation mode routes extra state (the per-index dither)
            /// through the scan closure; equivalence must survive it.
            #[test]
            fn archives_identical_with_decorrelation(
                (dims, data) in arb_grid_f32(),
                eb in 1e-3f64..1.0,
            ) {
                let config = Config::new(ErrorBound::Absolute(eb)).with_decorrelation();
                assert_equivalent(&dims, &data, &config).unwrap();
            }
        }
    }
}
