// Package fixture holds float shapes the fusedmath analyzer must NOT flag:
// products rounded by an explicit conversion, products of constants, and
// integer arithmetic.
package fixture

// rounded is the contract's shape: the conversion rounds the product
// before the add, so no compiler may fuse them.
func rounded(a, x, y float64) float64 {
	return float64(a*x) + y
}

// roundedAccumulate is the weighted sum with each product rounded.
func roundedAccumulate(ws, xs []float64) (s float64) {
	for i := range ws {
		s += float64(ws[i] * xs[i])
	}
	return s
}

// constantProduct is folded at compile time.
func constantProduct(y float64) float64 {
	const scale = 0.5
	return scale*4 + y
}

// integers never fuse.
func integers(a, x, y int) int {
	return a*x + y
}

// quotient is not a product.
func quotient(a, x, y float64) float64 {
	return a/x + y
}

// productAlone is a product with no add around it.
func productAlone(a, x float64) float64 {
	return a * x
}
