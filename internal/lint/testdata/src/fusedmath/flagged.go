// Package fixture holds float shapes the fusedmath analyzer must flag: an
// add or subtract whose operand is an unconverted product, which a compiler
// may fuse into one multiply-add that skips the product's rounding.
package fixture

// axpy is the plain multiply-add.
func axpy(a, x, y float64) float64 {
	return a*x + y // want `float \+ with an unconverted product operand`
}

// productRight is flagged with the product on either side.
func productRight(a, x, y float64) float64 {
	return y - a*x // want `float - with an unconverted product operand`
}

// parenthesized products are still products.
func parenthesized(a, x, y float64) float64 {
	return (a * x) - y // want `float - with an unconverted product operand`
}

// accumulate is the weighted-sum shape: x += a*b fuses like x = x + a*b.
func accumulate(ws, xs []float64) (s float64) {
	for i := range ws {
		s += ws[i] * xs[i] // want `float \+= of an unconverted product`
	}
	return s
}

// scaledByConstant keeps one variable operand, so it is a runtime product.
func scaledByConstant(x, y float64) float64 {
	return 10*x + y // want `float \+ with an unconverted product operand`
}

// float32 fuses too.
func single(a, x, y float32) float32 {
	return a*x + y // want `float \+ with an unconverted product operand`
}
