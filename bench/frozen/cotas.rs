tower {
  d1^2 = t^2 - t;
  d2^2 = 2*t^2 - 3*t + 1;
}
param {
  x = d1 / (t - 1);
  y = d2 / (t - 1);
}
