"""Exact computational topology for 3-manifold group presentations.

Integer Smith normal form and CW homology, multivariable Laurent arithmetic,
Fox calculus and twisted Alexander polynomials, Alexander-norm audits, a
fibredness certificate in the style of the Friedl-Vidussi criterion, exact
Clifford-algebra verification, and intersection-form diagnostics.

The Python API is the submodules, `exactalg`, `laurent`, `bareiss`,
`polymat`, `grouppres`, `twistedalex`, `normsfibred`, `clifford`, `fourman`
and `docio`; import from them.  The package itself imports none of them.
"""

__version__ = "0.1.0"
