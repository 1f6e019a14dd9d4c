//! Dense row-major tensor container.

use crate::{IndexIter, Shape};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major N-dimensional array.
///
/// `Tensor` owns its data as a flat `Vec<T>`; the [`Shape`] defines how the
/// flat buffer maps to multi-indices. This is deliberately minimal: the
/// compressors in this workspace scan data in flat row-major order (the
/// paper's "low dimension to high dimension" processing order), so views and
/// broadcasting are unnecessary.
#[derive(Clone, PartialEq)]
pub struct Tensor<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T> Tensor<T> {
    /// Wraps an existing flat buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` disagrees with the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<T>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            data.len(),
            "shape {shape} wants {} elements, buffer has {}",
            shape.len(),
            data.len()
        );
        Self { shape, data }
    }

    /// Builds a tensor by evaluating `f` at every multi-index in row-major
    /// order.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.len());
        let mut idx = vec![0usize; shape.ndim()];
        loop {
            data.push(f(&idx));
            if !shape.advance(&mut idx) {
                break;
            }
        }
        Self { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents (slowest first).
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements (cannot occur by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view of the data in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Checked multi-index read.
    pub fn get(&self, index: &[usize]) -> Option<&T> {
        self.shape.offset_checked(index).map(|o| &self.data[o])
    }

    /// Checked multi-index write handle.
    pub fn get_mut(&mut self, index: &[usize]) -> Option<&mut T> {
        self.shape.offset_checked(index).map(|o| &mut self.data[o])
    }

    /// Iterator over all multi-indices in row-major order.
    pub fn indices(&self) -> IndexIter {
        IndexIter::new(self.shape.clone())
    }
}

impl<T: Clone> Tensor<T> {
    /// Creates a tensor filled with copies of `value`.
    pub fn full(shape: impl Into<Shape>, value: T) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.len()];
        Self { shape, data }
    }

    /// Reinterprets the same flat data under a new shape of equal length.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor<T> {
        let shape = shape.into();
        assert_eq!(shape.len(), self.data.len(), "reshape must preserve length");
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }
}

impl<T: Default + Clone> Tensor<T> {
    /// Creates a tensor of default-valued elements.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Self::full(shape, T::default())
    }
}

impl<T> AsMut<[T]> for Tensor<T> {
    fn as_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Index<&[usize]> for Tensor<T> {
    type Output = T;
    #[inline]
    fn index(&self, index: &[usize]) -> &T {
        &self.data[self.shape.offset(index)]
    }
}

impl<T> IndexMut<&[usize]> for Tensor<T> {
    #[inline]
    fn index_mut(&mut self, index: &[usize]) -> &mut T {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }
}

impl<T: fmt::Debug> fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor({} elements, shape {})",
            self.data.len(),
            self.shape
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_fills_row_major() {
        let t = Tensor::from_fn([2, 3], |ix| ix[0] * 10 + ix[1]);
        assert_eq!(t.as_slice(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn indexing_reads_and_writes() {
        let mut t = Tensor::<i32>::zeros([2, 2]);
        t[&[1, 0][..]] = 5;
        assert_eq!(t[&[1, 0][..]], 5);
        assert_eq!(t.as_slice(), &[0, 0, 5, 0]);
    }

    #[test]
    fn get_is_checked() {
        let t = Tensor::from_vec([2, 2], vec![1, 2, 3, 4]);
        assert_eq!(t.get(&[1, 1]), Some(&4));
        assert_eq!(t.get(&[2, 0]), None);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![1, 2, 3, 4, 5, 6]);
        let r = t.reshape([3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "elements")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec([2, 2], vec![1, 2, 3]);
    }

    #[test]
    fn indices_iterate_in_flat_order() {
        let t = Tensor::from_fn([2, 2, 2], |ix| ix[0] * 4 + ix[1] * 2 + ix[2]);
        for (flat, ix) in t.indices().enumerate() {
            assert_eq!(t[&ix[..]], flat);
        }
    }
}
