tower {
  d1^3 = t^2 - 1;
  d2^3 = d1 + t;
  d3^2 = d2 - t;
}
param {
  x = d1*d2 + t;
  y = d3 / (t + 1);
}
